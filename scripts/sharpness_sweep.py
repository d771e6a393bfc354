#!/usr/bin/env python3
"""Sweep the scale factor across the sharp threshold on the extremal
binary-tree packing and watch the uncovered residual collapse.

Below the threshold the interval solver always finds an avoiding point;
above it the scaled shadows swallow the seed component, leaving only
truncation dust whose size shrinks geometrically with the generation
count.
"""

import argparse

from horoshadow import SHARP_SCALE, extremal, solve_2d
from horoshadow.sharp2d import scaled_shadow_residual


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--generations", type=int, default=12)
    args = ap.parse_args()

    fam = extremal(args.generations)
    root = fam.horoballs[0]
    print(f"extremal packing, {len(fam.horoballs)} horoballs, "
          f"critical scale {SHARP_SCALE:.12f}\n")
    print(f"{'scale offset':>14} {'residual intervals':>19} "
          f"{'largest residual':>17} {'solver':>10}")
    for off in (-1e-2, -1e-6, -1e-9, 1e-9, 1e-6, 1e-2):
        s = SHARP_SCALE + off
        seed = (s * float(root.radius), float(root.radius))
        residual = scaled_shadow_residual(fam, s, seed)
        largest = max((b - a for a, b in residual), default=0.0)
        try:
            solve_2d(fam, s)
            solved = "point"
        except ValueError:
            solved = "out of range"
        print(f"{off:>+14.0e} {len(residual):>19d} {largest:>17.3e} {solved:>10}")


if __name__ == "__main__":
    main()
