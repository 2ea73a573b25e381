"""q-deformed oscillator algebra {A, A+, N} realized on the Rogers-Szego basis.

Polynomial form: A = D_q (the Jackson derivative) and
A+ = (1 + y) - (1 - q) y D_q, which act as ladders

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

from dataclasses import dataclass, field

from .qseries import QParam, qnumber
from .rspoly import Polynomial, jackson_derivative, rs_coefficients


def apply_A_poly(p: Polynomial, qp: QParam) -> Polynomial:
    """Annihilation in polynomial form: A p = D_q p."""
    return jackson_derivative(p, qp)


def apply_Adag_poly(p: Polynomial, qp: QParam) -> Polynomial:
    """Creation in polynomial form: A+ p = (1 + y) p - (1 - q) y D_q p."""
    if p.is_zero():
        return Polynomial.zero()
    one_plus_y_p = p + p.times_y()
    correction = jackson_derivative(p, qp).times_y().scale(qp.one_minus_qpow(1))
    return one_plus_y_p - correction


def rs_basis_expand(p: Polynomial, qp: QParam) -> list[complex]:
    """Expand a polynomial over the {H_n} basis.

    Repeated leading-coefficient elimination: H_n is monic, so the change of
    basis is upper triangular with unit diagonal and needs no linear solve.
    Returns coefficients c with p = sum_n c[n] H_n.
    """
    work = list(p.coeffs)
    out = [0j] * max(1, len(work))
    while work:
        d = len(work) - 1
        lead = work.pop()
        if lead == 0:
            continue
        out[d] = lead
        if d > 0:
            hn = rs_coefficients(d, qp).coeffs
            for r in range(d):
                work[r] -= lead * hn[r]
    return out


@dataclass(frozen=True)
class AlgebraReport:
    """Scaled residuals of the two q identities on H_0 .. H_{n_max-1}."""

    n_max: int
    q: float
    tol: float
    residuals: dict[str, float]
    passed: bool
    failures: tuple[str, ...]
    #: max deviation of [A, A+] from the identity on H_0 .. H_{n_max-1};
    #: approaches 0 as q -> 1, where the undeformed oscillator is recovered
    classical_commutator_deviation: float = field(default=float("nan"))


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
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
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
        n_max=n_max,
        q=qp.q,
        tol=tol,
        residuals=worst,
        passed=not failures,
        failures=failures,
        classical_commutator_deviation=classical,
    )
