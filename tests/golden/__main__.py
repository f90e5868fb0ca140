"""``python -m tests.golden [--write]``: print how the grid's runs
differ from the golden record (exit 1 if any does), or rewrite it."""

import argparse
import sys

from . import RECORD, differences, lines, read, runs

parser = argparse.ArgumentParser(prog="python -m tests.golden", description=__doc__)
parser.add_argument("--write", action="store_true", help="rewrite the record")
args = parser.parse_args()
current = runs()
if args.write:
    RECORD.write_text("\n".join(lines(current)) + "\n", encoding="utf-8")
    print(f"wrote {len(current)} runs to {RECORD}")
    sys.exit(0)
changed = differences(read()[1], current)
print("\n".join(changed) or "every run matches the record")
sys.exit(1 if changed else 0)
