"""Exception types shared across the package.

There is no error for an imaginary residue: the shift-averaged kernel makes
the Wigner spectrum even by construction (qps.wigner), so its sum is real
and a run-time check of that could never fire.
"""

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

