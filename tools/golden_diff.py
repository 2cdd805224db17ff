#!/usr/bin/env python3
"""Compare two BENCH_*.json goldens row by row.

    tools/golden_diff.py OLD NEW --allow allocs_per_op,copies_per_op

Prints every cell that differs. Exits non-zero if a column outside
--allow differs anywhere (rows are matched by position; a different row
count or column set is a difference), or if `allocs_per_op` rose on an
app-tcp row (`"stack": "app-tcp"`). A re-pin that is meant to move only
the allocator-derived columns quotes this output as its proof.
"""
import argparse
import json
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--allow", default="", help="comma-separated columns that may differ")
    args = ap.parse_args()
    allow = {c for c in args.allow.split(",") if c}

    old, new = (json.load(open(p)) for p in (args.old, args.new))
    bad = []
    meta = lambda d: {k: v for k, v in d.items() if k != "rows"}
    if meta(old) != meta(new):
        bad.append("top-level fields outside `rows` differ")
    if len(old["rows"]) != len(new["rows"]):
        bad.append(f"row count {len(old['rows'])} -> {len(new['rows'])}")

    moved = 0
    for i, (a, b) in enumerate(zip(old["rows"], new["rows"])):
        label = " ".join(str(b[k]) for k in ("sweep", "stack", "backend") if k in b)
        for col in sorted(set(a) | set(b)):
            if a.get(col) == b.get(col):
                continue
            moved += 1
            print(f"row {i:2} [{label}] {col}: {a.get(col)} -> {b.get(col)}")
            if col not in allow:
                bad.append(f"row {i} column {col} is not in --allow")
            elif col == "allocs_per_op" and b.get("stack") == "app-tcp" and b[col] > a[col]:
                bad.append(f"row {i} app-tcp allocs_per_op rose {a[col]} -> {b[col]}")

    print(f"{moved} cell(s) differ; allowed columns: {', '.join(sorted(allow)) or '(none)'}")
    for why in bad:
        print(f"FAIL: {why}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
