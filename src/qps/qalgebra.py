"""q-deformed oscillator algebra {A, A+, N} realized on the Rogers-Szego basis.

Polynomial form, on coefficient tuples: A = D_q (rspoly.jackson_derivative)
and A+ = (1 + y) - (1 - q) y D_q (apply_Adag_poly), which act as ladders

    A  H_n = [n]_q H_{n-1},      A+ H_n = H_{n+1},      N H_n = n H_n.

On these actions the two relations that involve q,

    [A, A+] = q^N,   A A+ - q A+ A = 1,

reduce, basis element by basis element, to identities on the q-numbers:

    [k+1]_q - [k]_q = q^k,   [k+1]_q - q[k]_q = 1.

The other defining relations, [N, A+] = A+, [N, A] = -A and A+ A = [N]_q,
reduce to 1 = 1, -[k]_q = -[k]_q and [k]_q = [k]_q once the ladder actions
are given, so they hold for any value of [k]_q and are not checked.

verify_algebra checks the two q identities for k = 0 .. n_max-1 of the
space spanned by H_0 .. H_nmax.  The top index n_max is excluded because A+
maps H_nmax outside that space, so no relation that applies A+ first can be
evaluated on H_nmax there.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .qseries import QParam, qnumber


def apply_Adag_poly(p: tuple, qp: QParam) -> tuple:
    """Creation in polynomial form: A+ p = (1 + y) p - (1 - q) y D_q p.

    On coefficients, entry r is (p[r] + p[r-1]) - (1 - q)([r]_q p[r]), the
    q-Pascal form p[r-1] + q^r p[r] evaluated in this order; the result is
    one degree higher than p, and A+ of zero is zero.
    """
    if not p:
        return ()
    c = qp.one_minus_qpow(1)
    # the appended 0.0 is p[deg p + 1], and p[-1] at r = 0
    padded = p + (0.0,)
    return tuple((padded[r] + padded[r - 1]) - c * (qnumber(r, qp) * padded[r])
                 for r in range(len(padded)))


class AlgebraReport(namedtuple(
    "AlgebraReport",
    "residuals passed failures classical_commutator_deviation",
    defaults=(math.nan,),
)):
    """Scaled residuals of the two q identities on H_0 .. H_{n_max-1}.

    residuals maps each identity to its scaled residual, and failures names
    those at or above tol.  classical_commutator_deviation is the largest
    deviation of [A, A+] from the identity on H_0 .. H_{n_max-1}; it
    approaches 0 as q -> 1, where the undeformed oscillator is recovered.
    """

    __slots__ = ()


def verify_algebra(n_max: int, qp: QParam, tol: float) -> AlgebraReport:
    """Check the two q identities (see the module docstring) on H_0 .. H_{n_max-1}.

    Each residual is the largest deviation of one identity over k < n_max,
    divided by [k+1]_q >= 1, the largest q-number in it, in one O(n_max)
    pass that keeps only [k]_q and [k+1]_q.  Every deviation is computed in
    the float form of the single nonzero entry it takes in the
    truncated-matrix realization, so the residuals are bitwise those of the
    dense matrix products with each row divided by the same [k+1]_q (the
    reference that tests/test_qalgebra.py keeps).
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    names = ("comm_a_adag_minus_qN", "aadag_minus_q_adaga_minus_one")
    worst = dict.fromkeys(names, 0.0)
    classical = 0.0
    qk1 = qnumber(0, qp)
    for k in range(n_max):
        qk, qk1 = qk1, qnumber(k + 1, qp)
        deviations = (
            (qk1 - qk) - qp.qpow(k),
            (qk1 - qp.q * qk) - 1.0,
        )
        for name, dev in zip(names, deviations):
            worst[name] = max(worst[name], abs(dev) / qk1)
        classical = max(classical, abs((qk1 - qk) - 1.0))
    failures = tuple(name for name, r in worst.items() if not (r < tol))
    return AlgebraReport(
        residuals=worst,
        passed=not failures,
        failures=failures,
        classical_commutator_deviation=classical,
    )
