#!/usr/bin/env python3
"""Scan the finite-group perturbation of circle windows across radii.

Reports the separated center count, the chosen lift, the exact order of the
generated permutation group, and the worst deviation, for a fixed grid
window and sample.
"""

from fractions import Fraction

from folnerlab.groups import ArcMetric, Entourage, grid_sample, make_model
from folnerlab.perturb import ConstructionError, precompact_perturbation


def main() -> None:
    C = make_model("circle")
    win = grid_sample(C, 60)
    sample = grid_sample(C, 12)
    print("radius,|F|,lift,order,bound,max_deviation")
    for num in range(4, 41, 2):
        radius = Fraction(num, 60)
        U = Entourage(ArcMetric(C), radius)
        try:
            res = precompact_perturbation(U, win, sample)
        except ConstructionError as exc:
            print(f"{radius},-,none,-,-,{exc}")
            continue
        print(
            f"{radius},{len(res.centers)},{res.lift_mode},{res.group_order},"
            f"{res.order_bound},{res.max_deviation}"
        )


if __name__ == "__main__":
    main()
