"""Solve H(q) = H(q^2) + q H(q^4), H(0) = 1, with mahlerfold's Mahler solver.

    python perfbench/solve_h.py ORDER

Prints {"order": ORDER, "coeffs": [...]} with each coefficient as text.  The
CLI has no command that reaches ``solve_mahler``, so this job calls it here.
"""

import json
import sys

from mahlerfold.poly import Polynomial
from mahlerfold.series import MahlerEquation, solve_mahler


def main(order: int) -> None:
    eq = MahlerEquation(
        k=2,
        coeffs=(Polynomial([1]), Polynomial([-1]), Polynomial([0, -1])),
        normalization=1,
    )
    result = solve_mahler(eq, order)
    print(json.dumps({"order": order, "coeffs": [str(c) for c in result.coeffs]}))


if __name__ == "__main__":
    main(int(sys.argv[1]))
