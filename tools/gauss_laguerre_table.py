"""Write the Gauss-Laguerre table that soqd.quadrature reads.

    python3 tools/gauss_laguerre_table.py [--out PATH]

For every order R = 1 ... soqd.quadrature._TOP_ORDER, the nodes of the
rule for weight exp(-u) on [0, inf) (the roots of the Laguerre polynomial
L_R) and their log-weights, each computed with mpmath at 200 bits and
rounded once to the nearest double.  The file is little-endian float64:
order R's R ascending nodes, then their R log-weights, start R (R - 1)
doubles in.  The default output is the table shipped in the package,
``src/soqd/gauss_laguerre.f64``; the whole table takes about 5 minutes
on one core (orders 64, 168 and 264 together take about 5 s).

Each node is found by Newton's method on L_R, evaluated by the three-term
recurrence, from the float64 eigenvalues of the symmetric Jacobi matrix
(Golub & Welsch, Math. Comp. 23, 1969); at a root of L_R the weight is
w = x / (R L_{R-1}(x))^2, so log w = log x - 2 log|R L_{R-1}(x)|.
mpmath is needed here and by the tests, not by soqd itself.
"""

import argparse
import os
import sys

import numpy as np
from mpmath import mp
from mpmath.libmp import to_float

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from soqd import quadrature  # noqa: E402

#: working precision of every node and log-weight, in bits
PREC = 200


def start_nodes(order: int) -> np.ndarray:
    """Float64 nodes of the order-``order`` rule: the eigenvalues of the
    Jacobi matrix with diagonal 2k + 1 and off-diagonal k."""
    k = np.arange(order, dtype=float)
    jacobi = np.diag(2.0 * k + 1.0) + np.diag(k[1:], 1) + np.diag(k[1:], -1)
    return np.linalg.eigvalsh(jacobi)


def _laguerre(order: int, x):
    """(L_{R-1}(x), L_R(x)) for R = ``order``, by the three-term recurrence."""
    prev, cur = mp.mpf(1), 1 - x
    for j in range(1, order):
        prev, cur = cur, ((2 * j + 1 - x) * cur - j * prev) / (j + 1)
    return prev, cur


def rule(order: int, start) -> tuple:
    """(nodes, log-weights) as float64 arrays, one per entry of ``start``:
    the root of L_``order`` that Newton's method reaches from that double,
    and its log-weight, both at PREC bits and rounded to nearest."""
    nodes, log_w = [], []
    with mp.workprec(PREC):
        for x0 in start:
            x = mp.mpf(float(x0))
            # quadratic convergence: once a step is below half the working
            # precision, one more step reaches all of it
            converged = False
            for _ in range(64):
                below, at = _laguerre(order, x)
                step = at * x / (order * (at - below))  # L_R' = R (L_R - L_{R-1}) / x
                x -= step
                if converged:
                    break
                converged = abs(step) <= abs(x) * mp.mpf(2) ** (-PREC // 2)
            else:
                raise RuntimeError(f"Newton did not converge at order {order} from {x0!r}")
            below, _ = _laguerre(order, x)
            nodes.append(to_float(x._mpf_, rnd="n"))
            log_w.append(to_float((mp.log(x) - 2 * mp.log(abs(order * below)))._mpf_, rnd="n"))
    return np.array(nodes), np.array(log_w)


def table(top: int) -> np.ndarray:
    """Every order 1 ... ``top`` laid out as the package reads it."""
    blocks = []
    for order in range(1, top + 1):
        nodes, log_w = rule(order, start_nodes(order))
        if not np.all(np.diff(nodes) > 0) or abs(np.exp(log_w).sum() - 1.0) > 1e-13:
            raise RuntimeError(f"order {order}: Newton did not find every root")
        blocks += [nodes, log_w]
    return np.concatenate(blocks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=quadrature._RULE_TABLE,
                        help="where to write the table (default: the packaged one)")
    args = parser.parse_args(argv)
    table(quadrature._TOP_ORDER).astype("<f8").tofile(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
