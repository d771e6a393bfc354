#!/usr/bin/env python3
"""Print the named constants of the library with their closed forms."""

from horoshadow import (
    complex_hyperbolic_shrink_time,
    generic_shrink_time,
    glue_constants,
    max_scale_for_load,
    safe_scale,
    sharp_shrink_time,
)
from horoshadow.heisenberg import heis_modulus


def main():
    rows = [
        ("sharp shrink time, constant curvature",
         sharp_shrink_time(1), "-log(4*sqrt(2)-5)"),
        ("sharp shrink time, pinching a=2",
         sharp_shrink_time(2), "min-branch formula"),
        ("safe scale, packing 1/4, lines",
         safe_scale(0.25, has_lines=True), "sqrt(5)-2"),
        ("safe scale, packing 1/4, identity modulus",
         safe_scale(0.25, modulus=lambda e: e), "root of 1.5(1+s)^2=2(1-s)"),
        ("safe scale, packing 1/4, Heisenberg modulus",
         safe_scale(0.25, modulus=heis_modulus), "numeric supremum"),
        ("generic shrink time, real hyperbolic",
         generic_shrink_time(1, None, has_lines=True), "-log(sqrt(5)-2)"),
        ("generic shrink time, complex hyperbolic plane",
         complex_hyperbolic_shrink_time(), "approx 4.9157"),
        ("cone glue constant", glue_constants()["cone"], "log(2+sqrt(5))"),
        ("ideal-triangle glue constant",
         glue_constants()["triangle"], "log(1+sqrt(2))"),
        ("scale bound at load 1", max_scale_for_load(1.0), "sqrt(5)-2"),
    ]
    width = max(len(name) for name, _, _ in rows)
    for name, value, form in rows:
        print(f"{name:<{width}}  {value:.12f}   [{form}]")


if __name__ == "__main__":
    main()
