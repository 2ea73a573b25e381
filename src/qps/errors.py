"""Exception types shared across the package."""

from __future__ import annotations


class NonConvergenceError(RuntimeError):
    """A truncated series or product hit its term cap before meeting tolerance.

    Raised instead of silently returning a partial result.
    """

    def __init__(self, what: str, cap: int, detail: str = ""):
        msg = f"{what}: term cap {cap} reached before convergence"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.what = what
        self.cap = cap


class ImaginaryResidueError(RuntimeError):
    """A quantity that must assemble to a real number kept a large imaginary part.

    This signals an implementation or truncation bug, not a data condition.
    """

    def __init__(self, what: str, residue: float, tol: float):
        super().__init__(f"{what}: |imaginary residue| {residue:.3e} >= tol {tol:.3e}")
        self.residue = residue
        self.tol = tol
