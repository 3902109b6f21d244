#!/usr/bin/env python3
"""Compare a bench JSON against its checked-in baseline.

Every baseline metric is higher-is-better; a current value more than
--tolerance below the baseline fails the check. Metrics the current
run emits but the baseline lacks are listed and not gated, which is
how a bench records figures (such as absolute host rates) that no
fixed floor could hold on a shared runner.

A metric present in the baseline but absent from the current run is
a failure in its own right (a silently dropped stat is how perf
coverage rots), and the failing summary names every such metric so
the CI log says *which* counter disappeared, not just that one did.

Exit status: 0 all metrics within tolerance, 1 regression or a
metric missing from the current run, 2 usage/IO error.

--self-test runs the comparison logic against built-in fixtures and
exits 0/1; ctest invokes it so the gate that guards the benches is
itself guarded.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    return {k: v for k, v in data.items() if isinstance(v, (int, float))}


def compare(base, cur, tolerance):
    """Return (failures, missing, lines): regression count, the names
    of baseline metrics absent from the current run, and the report
    lines to print."""
    failures = 0
    missing = []
    lines = []
    width = max(len(k) for k in base)
    for key in sorted(base):
        want = base[key]
        got = cur.get(key)
        if got is None:
            lines.append(f"FAIL {key:<{width}}  missing from current run")
            missing.append(key)
            failures += 1
            continue
        floor = want * (1.0 - tolerance)
        change = (got - want) / want if want else 0.0
        verdict = "ok  " if got >= floor else "FAIL"
        lines.append(f"{verdict} {key:<{width}}  baseline {want:>12.4g}"
                     f"  current {got:>12.4g}  ({change:+.1%})")
        if got is not None and got < floor:
            failures += 1
    for key in sorted(set(cur) - set(base)):
        lines.append(f"note {key}: not in baseline (new metric?)")
    return failures, missing, lines


def self_test():
    base = {"throughput": 100.0, "speedup": 2.0}

    fails, missing, _ = compare(base, dict(base), 0.30)
    assert fails == 0 and not missing, "identical runs must pass"

    fails, missing, _ = compare(base, {"throughput": 65.0,
                                       "speedup": 2.0}, 0.30)
    assert fails == 1 and not missing, "35% drop must fail at 30%"

    fails, missing, _ = compare(base, {"throughput": 75.0,
                                       "speedup": 2.0}, 0.30)
    assert fails == 0, "25% drop must pass at 30%"

    fails, missing, lines = compare(base, {"speedup": 2.0}, 0.30)
    assert fails == 1 and missing == ["throughput"], \
        "a dropped metric must fail and be named"
    assert any("throughput" in l and "missing" in l for l in lines), \
        "the report must name the missing metric"

    fails, missing, _ = compare(base, {}, 0.30)
    assert fails == 2 and sorted(missing) == ["speedup", "throughput"], \
        "an empty run must name every missing metric"

    print("self-test: all checks passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", nargs="?",
                    help="checked-in baseline JSON")
    ap.add_argument("current", nargs="?",
                    help="freshly produced bench JSON")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional regression (default 0.30 = 30%%)",
    )
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in fixture checks and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        ap.error("baseline and current are required (or --self-test)")

    base = load(args.baseline)
    cur = load(args.current)
    if not base:
        print(f"error: no numeric metrics in {args.baseline}",
              file=sys.stderr)
        return 2

    failures, missing, lines = compare(base, cur, args.tolerance)
    for line in lines:
        print(line)

    if failures:
        if missing:
            print(f"\nmissing metric(s): {', '.join(missing)}")
        print(f"\n{failures} metric(s) regressed beyond "
              f"{args.tolerance:.0%} of baseline or went missing")
        return 1
    print(f"\nall {len(base)} metrics within {args.tolerance:.0%} "
          "of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
