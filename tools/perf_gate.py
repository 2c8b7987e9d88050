#!/usr/bin/env python3
"""CI perf gate: compare a fresh bench_simspeed JSON against the
committed baseline and fail on a sim-cycles/s regression.

Usage: perf_gate.py BASELINE FRESH [--threshold 0.25]
                    [--min-ratio A:B=R ...]

Every benchmark present in the baseline must be present in the fresh
run (a silently vanished benchmark would rot the gate) and must run at
>= (1 - threshold) x its baseline sim_cycles/s. Benchmarks new in the
fresh run pass through (they become gated once the baseline is
refreshed). The fresh JSON is uploaded by CI as the next baseline
artifact, so the committed file only needs refreshing when the
hardware class or the benchmark set changes.

--min-ratio NAME_A:NAME_B=R (repeatable) ratchets a *relative* speed
within the fresh run alone: fresh NAME_A must run at >= R x the
sim_cycles/s of fresh NAME_B (':' separates the names because
benchmark names themselves contain '/'). Unlike the baseline
comparison this is hardware-independent (both sides ran on the same
machine minutes apart), so it pins speedup claims — e.g. the batched
kernel's >= 15.3x over the stepped kernel on the Figure 10 sweep —
without a calibrated baseline.
"""

import argparse
import json
import sys


def rates(path):
    with open(path) as f:
        data = json.load(f)
    return {
        b["name"]: b["sim_cycles/s"]
        for b in data.get("benchmarks", [])
        if "sim_cycles/s" in b
    }


def parse_min_ratio(text):
    """'A:B=R' -> (A, B, R), with argparse-friendly errors."""
    pair, sep, ratio = text.rpartition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected NAME_A:NAME_B=RATIO, got {text!r}")
    a, sep, b = pair.partition(":")
    if not sep or not a or not b:
        raise argparse.ArgumentTypeError(
            f"expected NAME_A:NAME_B=RATIO, got {text!r}")
    try:
        return a, b, float(ratio)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"ratio in {text!r} is not a number")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="maximum tolerated fractional regression")
    parser.add_argument("--min-ratio", action="append", default=[],
                        type=parse_min_ratio, metavar="A:B=R",
                        help="require fresh A >= R x fresh B "
                             "sim_cycles/s (repeatable)")
    args = parser.parse_args()

    baseline = rates(args.baseline)
    fresh = rates(args.fresh)
    if not baseline:
        print(f"perf gate: no sim_cycles/s rates in {args.baseline}")
        return 1

    failures = []
    width = max(len(name) for name in baseline)
    print(f"{'benchmark':<{width}} {'baseline':>12} {'fresh':>12} "
          f"{'ratio':>7}")
    for name in sorted(baseline):
        base = baseline[name]
        if name not in fresh:
            print(f"{name:<{width}} {base:>12.3e} {'MISSING':>12}")
            failures.append(f"{name}: missing from the fresh run")
            continue
        ratio = fresh[name] / base
        print(f"{name:<{width}} {base:>12.3e} {fresh[name]:>12.3e} "
              f"{ratio:>6.2f}x")
        if ratio < 1.0 - args.threshold:
            failures.append(
                f"{name}: {fresh[name]:.3e} sim_cycles/s is "
                f"{(1.0 - ratio) * 100:.0f}% below the baseline "
                f"{base:.3e} (tolerance {args.threshold * 100:.0f}%)")
    for name in sorted(set(fresh) - set(baseline)):
        print(f"{name:<{width}} {'(new)':>12} {fresh[name]:>12.3e}")

    for fast, slow, need in args.min_ratio:
        missing = [n for n in (fast, slow) if n not in fresh]
        if missing:
            failures.append(
                f"{fast}:{slow}: missing from the fresh run: "
                + ", ".join(missing))
            continue
        ratio = fresh[fast] / fresh[slow]
        print(f"{fast} / {slow}: {ratio:.2f}x (need >= {need:.2f}x)")
        if ratio < need:
            failures.append(
                f"{fast}: only {ratio:.2f}x the sim_cycles/s of "
                f"{slow}, ratchet requires >= {need:.2f}x")

    if failures:
        print("\nperf gate FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"\nperf gate passed: {len(baseline)} benchmarks within "
          f"{args.threshold * 100:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
