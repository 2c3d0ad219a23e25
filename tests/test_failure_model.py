"""README's failure-model table names its guards, and they exist.

Every survived row of the table under "### The failure model" must name
at least one pytest node id, every named id must resolve to a file and a
function (and class) under ``tests/``, and the rows the program does
*not* survive must say so and name nothing.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NODE_ID = re.compile(r"`(tests/[\w/]+\.py(?:::\w+)+)`")


def _rows():
    section = (ROOT / "README.md").read_text().split("### The failure model", 1)[1]
    table = section.split("\n\n| ", 1)[1].split("\n\n", 1)[0]
    rows = [line.strip("| ").split(" | ") for line in table.splitlines()[2:]]
    assert all(len(row) == 3 for row in rows), rows
    return rows


def test_every_survived_row_names_a_test_that_exists():
    survived = [row for row in _rows() if "not survived" not in row[1]]
    assert len(survived) >= 10
    for what, outcome, held_by in survived:
        assert outcome.startswith("survived"), what
        node_ids = NODE_ID.findall(held_by)
        assert node_ids, f"no test named for: {what}"
        for node_id in node_ids:
            path, *names = node_id.split("::")
            source = (ROOT / path).read_text()  # the file exists
            for cls in names[:-1]:
                assert re.search(rf"^class {cls}\b", source, re.M), node_id
            assert re.search(rf"^\s*def {names[-1]}\(", source, re.M), node_id


def test_the_unsurvived_row_says_so_and_names_no_test():
    unsurvived = [row for row in _rows() if "not survived" in row[1]]
    assert [what.split(" (")[0] for what, _, _ in unsurvived] == [
        "The page cache is lost",
    ]
    for _, outcome, held_by in unsurvived:
        assert outcome.startswith("**not survived**")
        assert not NODE_ID.findall(held_by) and "tests/" not in held_by
