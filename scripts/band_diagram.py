#!/usr/bin/env python3
"""Band diagram of a 1d periodic Schroedinger operator given by Fourier modes."""

import argparse

from blochspec import FiberTruncation, band_structure, band_sweep, interior_gaps
from blochspec.cli import parse_potential
from blochspec.svgplot import render_bands_svg


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--potential", default="1:1", help="n:re[,im] pairs, e.g. '1:1,2:0.3'")
    ap.add_argument("--cutoff", type=int, default=32)
    ap.add_argument("--bands", type=int, default=6)
    ap.add_argument("--kpoints", type=int, default=101)
    ap.add_argument("--output", default="bands.svg")
    args = ap.parse_args()

    potential = parse_potential(args.potential)
    trunc = FiberTruncation(args.cutoff)
    ks, energies = band_sweep(potential, trunc, args.bands, args.kpoints)
    bands = band_structure(potential, trunc, args.bands)
    for b, (lo, hi) in enumerate(bands.intervals):
        print(f"band {b}: [{lo:10.5f}, {hi:10.5f}] width {hi - lo:8.5f}")
    for lo, hi in interior_gaps(bands):
        print(f"gap [{lo:10.5f}, {hi:10.5f}] width {hi - lo:.3e}")

    with open(args.output, "w") as fh:
        fh.write(render_bands_svg(ks, energies, f"potential={args.potential}"))
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
