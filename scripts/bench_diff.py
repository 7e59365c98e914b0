#!/usr/bin/env python3
"""Compare a change's bench JSON runs against its parent's.

Usage:
  bench_diff.py --parent P1.json [P2.json ...] --change C1.json [C2.json ...]
                [--tolerance-pct N]

The i-th parent run pairs with the i-th change run (run them alternately,
on one host). Every numeric field whose name ends in `ns_per_tuple`
(lower is better) is compared pair by pair. A field fails when the median
change/parent ratio exceeds 1 + tolerance (default 10%) *and* the change is
slower in at least four fifths of the pairs (4 of 5; 1 of 1, as when one
fresh run is compared against a committed baseline).

Series are matched by their `label` field where present, so reordering or
appending series does not produce false diffs. A field present in the
parent runs but missing from a change run is an error (a silently dropped
measurement is a regression too). Improvements and new fields are reported
but never fail the run. Stdlib only — no third-party dependencies.
"""

import argparse
import json
import math
import statistics
import sys

GATED_SUFFIX = "ns_per_tuple"


def walk(node, path=""):
    """Yields (path, value) for every leaf; dict-valued list entries with a
    `label` key are addressed by label instead of index."""
    if isinstance(node, dict):
        for key, value in sorted(node.items()):
            yield from walk(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            if isinstance(value, dict) and "label" in value:
                yield from walk(value, f"{path}[{value['label']}]")
            else:
                yield from walk(value, f"{path}[{i}]")
    else:
        yield path, node


def load(path):
    with open(path) as f:
        return dict(walk(json.load(f)))


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--parent", nargs="+", required=True, help="the parent's runs")
    ap.add_argument("--change", nargs="+", required=True, help="the change's runs")
    ap.add_argument(
        "--tolerance-pct",
        type=float,
        default=10.0,
        help="maximum allowed median ns/tuple regression (default: 10)",
    )
    args = ap.parse_args()
    parent_paths, change_paths = args.parent, args.change
    if len(parent_paths) != len(change_paths):
        ap.error("--parent and --change need the same number of runs")

    parents = [load(p) for p in parent_paths]
    changes = [load(c) for c in change_paths]
    n = len(parents)
    must_lose = math.ceil(0.8 * n)
    tol = args.tolerance_pct

    fields = [
        path
        for path, value in parents[0].items()
        if path.endswith(GATED_SUFFIX)
        and all(is_number(p.get(path)) for p in parents)
        and is_number(value)
    ]
    failures = []
    compared = 0
    for path in fields:
        missing = [c for c, run in zip(change_paths, changes) if not is_number(run.get(path))]
        if missing:
            failures.append(f"{path}: on the parent but missing from {', '.join(missing)}")
            print(f"! {path}: missing from the change")
            continue
        pairs = [(p[path], c[path]) for p, c in zip(parents, changes)]
        if any(base <= 0 for base, _ in pairs):
            continue  # degenerate baseline; nothing meaningful to gate
        compared += 1
        ratio = statistics.median(new / base for base, new in pairs)
        slower = sum(new > base for base, new in pairs)
        delta_pct = (ratio - 1.0) * 100.0
        base_med = statistics.median(base for base, _ in pairs)
        new_med = statistics.median(new for _, new in pairs)
        marker = " "
        if delta_pct > tol and slower >= must_lose:
            failures.append(
                f"{path}: {base_med:g} -> {new_med:g} ns/t "
                f"(median ratio {delta_pct:+.1f}%, slower in {slower}/{n})"
            )
            marker = "!"
        print(
            f"{marker} {path}: {base_med:g} -> {new_med:g} "
            f"(median ratio {delta_pct:+.1f}%, slower in {slower}/{n})"
        )

    for path in changes[0]:
        if path.endswith(GATED_SUFFIX) and path not in parents[0]:
            print(f"+ {path}: new series ({changes[0][path]!r}), not gated")

    if compared == 0 and not failures:
        print("error: no ns_per_tuple fields found in the parent runs", file=sys.stderr)
        return 2
    if failures:
        print(
            f"\nFAIL: {len(failures)} field(s) missing from the change, or beyond "
            f"{tol:g}% in the median and slower in at least {must_lose} of {n} pair(s):",
            file=sys.stderr,
        )
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print(f"\nOK: {compared} ns/tuple field(s) within {tol:g}% over {n} pair(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
