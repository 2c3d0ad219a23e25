"""The collusion pool: derivations from captured artefacts."""

from repro.adversary.knowledge import CollusionPool, Observation
from repro.crypto.shamir import split_secret
from repro.util.rng import RandomSource


def deposit_key(pool, column, key=b"K", time=1.0):
    pool.deposit(
        Observation(
            time=time, holder=f"h{column}", kind="layer_key", column=column, payload=key
        )
    )


class TestDirectCaptures:
    def test_layer_key_lookup(self):
        pool = CollusionPool()
        deposit_key(pool, 2, b"key-2")
        assert pool.known_layer_key(2) == b"key-2"
        assert pool.known_layer_key(1) is None

    def test_first_capture_time_kept(self):
        pool = CollusionPool()
        deposit_key(pool, 1, b"early", time=5.0)
        deposit_key(pool, 1, b"late", time=9.0)
        assert pool.layer_key_capture_time(1) == 5.0
        assert pool.known_layer_key(1) == b"early"

    def test_secret_key_capture(self):
        pool = CollusionPool()
        pool.deposit(
            Observation(time=3.0, holder="t", kind="secret_key", payload=b"S")
        )
        assert pool.secret_key() == b"S"

    def test_observation_counting(self):
        pool = CollusionPool()
        deposit_key(pool, 1)
        deposit_key(pool, 2)
        assert pool.observation_count == 2
        assert len(pool.observations("layer_key")) == 2
        assert pool.observations("share") == []


class TestShareDerivation:
    def test_threshold_reached_derives_key(self):
        pool = CollusionPool()
        secret = b"column-key-material"
        shares = split_secret(secret, 3, 5, RandomSource(1))
        for i, share in enumerate(shares[:3]):
            pool.deposit_share(float(i), f"holder-{i}", column=4, share=share)
        assert pool.known_layer_key(4) == secret
        assert pool.layer_key_capture_time(4) == 2.0  # third share's arrival

    def test_below_threshold_derives_nothing(self):
        pool = CollusionPool()
        shares = split_secret(b"secret", 3, 5, RandomSource(2))
        pool.deposit_share(0.0, "h", column=4, share=shares[0])
        pool.deposit_share(1.0, "h2", column=4, share=shares[1])
        assert pool.known_layer_key(4) is None

    def test_captured_columns(self):
        pool = CollusionPool()
        deposit_key(pool, 1)
        shares = split_secret(b"s", 2, 3, RandomSource(3))
        pool.deposit_share(0.0, "a", column=3, share=shares[0])
        pool.deposit_share(1.0, "b", column=3, share=shares[1])
        assert pool.captured_columns() == {1, 3}
