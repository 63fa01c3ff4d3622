#!/usr/bin/env python3
"""Band-measure decay along golden-mean approximants.

At lambda = 1 the total band measure of the Harper spectrum shrinks along the
Fibonacci fractions 1/2, 2/3, 3/5, ...; the limiting irrational flux is
expected to carry a measure-zero (Cantor) spectrum.  This prints the measured
sequence and q * measure, which should approach a constant if the measure
decays like 1/q.
"""

import argparse

from blochspec import cantor_proxy, fibonacci_approximants


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=8, help="number of approximants")
    ap.add_argument("--lambda", dest="lam", type=float, default=1.0)
    args = ap.parse_args()

    rows = cantor_proxy(fibonacci_approximants(args.count), args.lam)
    print(f"lambda = {args.lam}")
    print(f"{'flux':>8} {'measure':>12} {'q * measure':>12}")
    for flux, measure in rows:
        print(f"{str(flux):>8} {measure:12.6f} {flux.q * measure:12.6f}")


if __name__ == "__main__":
    main()
