#!/usr/bin/env python3
"""Regenerate the three committed golden corpora.

The corpora (``tests/goldens/{conformance,columnar,serving}_goldens.json``,
described in :mod:`repro.verify.goldens`) pin exact results of every
registered policy, of the columnar and set-dueling engines and of the
serving scenario.  ``repro verify`` and the test suite fail on any drift,
so this script is the *only* sanctioned way to move those numbers: run it
after an intentional behaviour change, read what it prints (each
corpus's path, its cell count and every entry that moved, as old -> new)
and commit the result together with the change that caused it.  It
refuses to write a corpus whose engines disagree.

A provenance manifest sidecar next to each corpus records the code
digest, git revision and kernel modes of the regeneration.

Usage::

    python scripts/regen_goldens.py [--check]

``--check`` verifies the committed corpora against a fresh recomputation
and exits 1 on drift without writing anything (the CI mode).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.verify.goldens import (  # noqa: E402
    CORPORA,
    check_corpus,
    write_corpus,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="verify the committed corpora instead of rewriting them",
    )
    args = parser.parse_args(argv)

    if args.check:
        drift, checked = [], 0
        for corpus in CORPORA:
            lines, count = check_corpus(corpus)
            drift += lines
            checked += count
        if drift:
            print(f"golden corpus drift ({len(drift)} entries):",
                  file=sys.stderr)
            for line in drift:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"golden corpus OK: {checked} entries match")
        return 0

    for corpus in CORPORA:
        moved = write_corpus(corpus)
        print(f"wrote {corpus.path}: {len(corpus.cells())} cells, "
              f"{len(moved)} entries moved")
        for key, (old, new) in moved.items():
            print(f"  {key}: {old} -> {new}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
