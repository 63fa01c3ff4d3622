#!/usr/bin/env python3
"""Render a Hofstadter butterfly to SVG and print per-row band counts."""

import argparse
import time

from blochspec import butterfly, lebesgue_measure
from blochspec.svgplot import render_butterfly_svg


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-q", type=int, default=20)
    ap.add_argument("--lambda", dest="lam", type=float, default=1.0)
    ap.add_argument("--output", default="butterfly.svg")
    args = ap.parse_args()

    t0 = time.perf_counter()
    data = butterfly(args.max_q, args.lam)
    print(f"{len(data)} flux rows in {time.perf_counter() - t0:.3f}s")
    for flux, bands in data:
        print(f"  {str(flux):>6}: {len(bands):2d} bands, measure {lebesgue_measure(bands):.4f}")

    metadata = f"max_q={args.max_q} lambda={args.lam}"
    with open(args.output, "w") as fh:
        fh.write(render_butterfly_svg(data, metadata))
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
