#!/usr/bin/env python3
"""Pins for the CLI's ``--help`` text (``tests/core/test_cli.py``).

    PYTHONPATH=src python3 tests/core/golden/regen.py

rewrites ``cli_help.txt`` beside this file from whatever ``repro`` is on
the path: every parser level's help, ``repro`` first and then each
subcommand depth-first, rendered at ``COLUMNS=80``.  The committed golden
was rendered by argparse on Python 3.10–3.12 before the CLI's argument
checks moved into ``type=`` converters, so it states what "no flag added,
renamed or re-worded" means.  Only rerun it in a PR that changes the CLI
surface on purpose and says so.
"""

from __future__ import annotations

import argparse
import os
from pathlib import Path

GOLDEN = Path(__file__).with_name("cli_help.txt")


def render_help(parser=None, path=("repro",)) -> str:
    """Every parser level's ``--help`` text, one ``=== repro ...`` block
    each, at the width ``COLUMNS`` names."""
    if parser is None:
        from repro.cli import _build_parser

        parser = _build_parser()
    text = f"=== {' '.join(path)}\n{parser.format_help()}"
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                text += render_help(child, (*path, name))
    return text


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN.write_text(render_help())
    print(f"wrote {GOLDEN}")
