"""Wire serialization and the release timeline."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.timeline import ReleaseTimeline
from repro.core.wire import WireError, WireReader, WireWriter


class TestWireRoundTrips:
    def test_mixed_message(self):
        writer = WireWriter()
        writer.write_u8(7).write_u32(1000)
        writer.write_f64(3.25).write_bytes(b"blob")
        writer.write_bytes_list([b"a", b"", b"ccc"])
        reader = WireReader(writer.getvalue())
        assert reader.read_u8() == 7
        assert reader.read_u32() == 1000
        assert reader.read_f64() == 3.25
        assert reader.read_bytes() == b"blob"
        assert reader.read_bytes_list() == [b"a", b"", b"ccc"]
        reader.expect_end()

    @given(st.lists(st.binary(max_size=20), max_size=8))
    def test_bytes_list_roundtrip(self, items):
        data = WireWriter().write_bytes_list(items).getvalue()
        assert WireReader(data).read_bytes_list() == items

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_f64_roundtrip(self, value):
        data = WireWriter().write_f64(value).getvalue()
        assert WireReader(data).read_f64() == value


class TestWireErrors:
    def test_truncated_read(self):
        with pytest.raises(WireError, match="truncated"):
            WireReader(b"\x00\x01").read_u32()

    def test_trailing_bytes_detected(self):
        data = WireWriter().write_u8(1).getvalue() + b"junk"
        reader = WireReader(data)
        reader.read_u8()
        with pytest.raises(WireError, match="trailing"):
            reader.expect_end()

    def test_u8_range(self):
        with pytest.raises(WireError):
            WireWriter().write_u8(256)
        with pytest.raises(WireError):
            WireWriter().write_u8(-1)

    def test_u32_range(self):
        with pytest.raises(WireError):
            WireWriter().write_u32(2 ** 32)

    def test_length_prefix_protects_against_huge_claims(self):
        # A length prefix larger than the remaining data must error, not hang.
        data = WireWriter().write_u32(10 ** 6).getvalue()
        with pytest.raises(WireError):
            WireReader(data).read_bytes()

    def test_non_bytes_rejected(self):
        with pytest.raises(WireError):
            WireReader("text")
        with pytest.raises(WireError):
            WireWriter().write_bytes("text")

    def test_remaining(self):
        reader = WireReader(b"abcdef")
        assert reader.remaining == 6
        assert reader.read_u32() == int.from_bytes(b"abcd", "big")
        assert reader.remaining == 2


class TestReleaseTimeline:
    def test_periods(self):
        timeline = ReleaseTimeline(start_time=10.0, release_time=40.0, path_length=3)
        assert timeline.emerging_period == 30.0
        assert timeline.holding_period == 10.0
        assert timeline.forward_time(1) == 20.0
        assert timeline.forward_time(3) == 40.0  # the release time itself
        assert timeline.boundaries() == [20.0, 30.0, 40.0]

    def test_alpha(self):
        timeline = ReleaseTimeline(0.0, 50.0, 5)
        assert timeline.alpha(10.0) == pytest.approx(5.0)

    def test_release_must_follow_start(self):
        with pytest.raises(ValueError):
            ReleaseTimeline(10.0, 10.0, 1)
        with pytest.raises(ValueError):
            ReleaseTimeline(10.0, 5.0, 1)

    def test_column_bounds_checked(self):
        timeline = ReleaseTimeline(0.0, 10.0, 2)
        with pytest.raises(ValueError):
            timeline.forward_time(0)
        with pytest.raises(ValueError):
            timeline.forward_time(3)

    def test_with_path_length(self):
        timeline = ReleaseTimeline(0.0, 30.0, 3)
        longer = timeline.with_path_length(6)
        assert longer.holding_period == 5.0
        assert longer.release_time == 30.0
