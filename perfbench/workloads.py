"""Seeded op lists for the three benchmark workloads.

Every workload is a fixed sequence of *cells*.  A cell pins the properties
that set an op's cost and the layer it exercises (command, state-index band,
grid size, number of mu columns, output format, q band); the seed only
chooses the point inside the cell.  One pass over the cells is a *round*,
and a run always executes whole rounds, so every run measures the same mix
of work whatever its seed or its op count.  Discrete choices inside a cell
(state index, grid size, m window) are dealt from a seeded shuffle, so a few
rounds use each choice about equally often.  That is what keeps the
end-to-end figures steady across seeds while the seeds still move every
drawn parameter.

The draws cover the CLI's accepted ranges and the documented domain
q in [1e-4, 1 - 1e-4] (mu in [MU_MIN, MU_MAX]) wherever the program's
outputs pass their checks, and are capped by cost.  Where a command is known
to give wrong output (the limits below, measured against checks.py), the
timed ops stay out and a fixed list of points inside the failing region,
KNOWN_DEFECTS, is run untimed in every run and reported on its own, so the
defects stay visible and a fix shows as a probe that starts to pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

Q_LO = 1e-4
Q_HI = 1.0 - 1e-4
MU_MIN = -math.log1p(-1e-4) / 2.0  # q = 1 - 1e-4
MU_MAX = -math.log(1e-4) / 2.0  # q = 1e-4
MU_SWITCH = math.pi / 2.0  # theta_3 branch switch in qps.theta
TOL = 1e-12  # the CLI's default --tol for table commands

#: cap on sum over m of (2 t_cut + 1)(n + 1)^2 for one action_wigner op;
#: about 3 s of Wigner t/r/s loop on a 2 vCPU Xeon when this benchmark was written
KERNEL_TERMS_CAP = 2_000_000

#: m values per action-dist op; the seed places n inside the window
M_WINDOW = 7

# Limits of the region where the outputs pass their checks.  Past each one
# the program is known to be wrong; KNOWN_DEFECTS probes that side.
#: angle-dist Omega columns lose grid mean 1 below mu ~ 0.05 for n in 4..30
#: (binomial-sum R_n); the floor keeps a factor of 2 of margin
ANGLE_MU_FLOOR = 0.1
#: action-dist / wigner overflow e^{mu (r + s)} once 2 mu n exceeds ~709;
#: checks pass up to 700, the cap keeps a margin
BOOST_EXPONENT_CAP = 600.0
#: action-dist / wigner lose Lambda(m) = delta_{m,n} to 1e-8 above q ~ 0.85
#: at n = 17..35 and above q ~ 0.9 at n <= 6
ACTION_Q_HI = 0.8
ACTION_Q_HI_SMALL_N = 0.88
#: verify fails orthogonality_triangle at n = 10 for q <= 1e-3 and
#: angle_normalization for q >= 0.9994 at n = 2..3; both pass at 2e-3 and 0.999
VERIFY_Q_LO = 4e-3
VERIFY_Q_HI = 0.998


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its checker needs to know."""

    index: int
    cell: str
    argv: tuple[str, ...]
    check: dict = field(hash=False)


def _fmt(x: float) -> str:
    return "%.6g" % x


def _q_arg(q: float) -> str:
    """q formatted for the command line, kept inside the documented domain."""
    return _fmt(min(max(float(_fmt(q)), Q_LO), Q_HI))


class Draws:
    """The seeded source of every parameter of one op stream."""

    def __init__(self, seed_text: str):
        self.rng = random.Random(seed_text)
        self._decks: dict[str, list] = {}

    def deal(self, key: str, choices) -> object:
        """Next choice for key from a seeded shuffle, reshuffled once used up."""
        deck = self._decks.get(key)
        if not deck:
            deck = list(choices)
            self.rng.shuffle(deck)
            self._decks[key] = deck
        return deck.pop()


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One log-uniform draw in each of `count` equal log-width bands of [lo, hi)."""
    edges = [lo * (hi / lo) ** (k / count) for k in range(count + 1)]
    return [_log_uniform(rng, edges[k], edges[k + 1]) for k in range(count)]


def _mu_to_q(mu: float) -> float:
    return math.exp(-2.0 * mu)


def _q_band(rng: random.Random, q_lo: float, q_hi: float) -> str:
    """q drawn log-uniformly in mu = -ln(q)/2 between the two q values
    (a pinned cell has q_lo == q_hi), formatted for the command line."""
    if q_lo == q_hi:
        return _q_arg(q_lo)
    return _q_arg(_mu_to_q(_log_uniform(rng, -math.log(q_hi) / 2.0, -math.log(q_lo) / 2.0)))


def t_cutoff(q: float, tol: float = TOL) -> int:
    """Same truncation rule as the Wigner t-sum; used only to size draws."""
    mu = -math.log(q) / 2.0
    return math.ceil(math.sqrt(math.log(1.0 / tol) / mu)) + 1


def _resolving_k(q: float, n: int) -> int:
    """Smallest power-of-two grid (at least 256) above the Wigner bandwidth."""
    need = 2 * (t_cutoff(q) + 2 * n) + 2
    return max(256, 2 ** math.ceil(math.log2(need)))


# ---------------------------------------------------------------------------
# angle_figure
# ---------------------------------------------------------------------------

# (cell, n_lo, n_hi, K, mu count, format)
_ANGLE_CELLS = [
    ("angle.n0-3", 0, 3, 4096, 6, "csv"),
    ("angle.n4-7", 4, 7, 2048, 5, "json"),
    ("poly", 10, 12, 1024, 0, "csv"),
    ("angle.n8-11", 8, 11, 1024, 4, "csv"),
    ("angle.n12-15", 12, 15, 1024, 4, "json"),
    ("angle.n16-19", 16, 19, 1024, 3, "csv"),
    ("angle.n20-23", 20, 23, 1024, 3, "json"),
    ("theta", 0, 0, 0, 0, "json"),
    ("angle.n24-27", 24, 27, 1024, 3, "csv"),
    ("angle.n30", 30, 30, 1024, 3, "json"),
]


def _mu_list(rng: random.Random, count: int) -> list[float]:
    below = (count + 1) // 2
    return (_strata(rng, ANGLE_MU_FLOOR, MU_SWITCH, below)
            + _strata(rng, MU_SWITCH, MU_MAX, count - below))


def _angle_round(draws: Draws, start: int) -> list[Op]:
    rng = draws.rng
    ops = []
    for offset, (cell, n_lo, n_hi, k, n_mu, fmt) in enumerate(_ANGLE_CELLS):
        index = start + offset
        n = draws.deal(cell, range(n_lo, n_hi + 1))
        if cell == "poly":
            q = _q_band(rng, Q_LO, Q_HI)
            argv = ("poly", "--q", q, "--n", str(n), "--grid-points", str(k), "--format", fmt)
            ops.append(Op(index, cell, argv, {"kind": "poly", "q": q, "n": n, "k": k, "fmt": fmt}))
        elif cell == "theta":
            k = draws.deal(cell + ".k", (1024, 2048, 4096))
            mu = _fmt(_log_uniform(rng, MU_MIN, MU_MAX))
            argv = ("theta", "--mu", mu, "--grid-points", str(k), "--format", fmt)
            ops.append(Op(index, cell, argv, {"kind": "theta", "k": k, "fmt": fmt}))
        else:
            mus = [_fmt(m) for m in _mu_list(rng, n_mu)]
            argv = ("angle-dist", "--n", str(n), "--mu-list", ",".join(mus),
                    "--grid-points", str(k), "--format", fmt)
            ops.append(Op(index, cell, argv,
                          {"kind": "angle", "columns": len(mus), "k": k, "fmt": fmt}))
    return ops


# ---------------------------------------------------------------------------
# action_wigner
# ---------------------------------------------------------------------------

# (cell, command, q_lo, q_hi, n_lo, n_hi, K or None for "resolving", format);
# each band keeps 2 mu n under BOOST_EXPONENT_CAP, so the cap seldom lowers n
# and a cell's cost does not hang on the seed.  The K = 4096 Wigner cells
# (q-small, q-lowmid) set the workload's peak RSS whatever the seed.
_ACTION_CELLS = [
    ("action.q-small", "action", Q_LO, 0.01, 58, 63, None, "csv"),
    ("wigner.q-small", "wigner", 0.05, 0.1, 150, 155, 4096, "csv"),
    ("action.q-mid", "action", 0.01, 0.3, 58, 62, None, "json"),
    ("action.q-near1", "action", ACTION_Q_HI, ACTION_Q_HI_SMALL_N, 3, 6, None, "csv"),
    ("wigner.q-mid", "wigner", 0.05, 0.6, 95, 100, 2048, "json"),
    ("action.q-high", "action", 0.3, 0.7, 42, 45, None, "csv"),
    ("action.q-high2", "action", 0.7, ACTION_Q_HI, 15, 17, None, "json"),
    ("wigner.q-high", "wigner", 0.6, ACTION_Q_HI, 30, 34, 1024, "csv"),
    ("wigner.q-near1", "wigner", ACTION_Q_HI, ACTION_Q_HI_SMALL_N, 3, 5, None, "json"),
    ("wigner.q-lowmid", "wigner", 0.03, 0.3, 140, 148, 4096, "json"),
]


def _capped_n(n: int, q: float, m_count: int) -> int:
    """n lowered until the Wigner loop stays under KERNEL_TERMS_CAP and
    2 mu n under BOOST_EXPONENT_CAP."""
    width = 2 * t_cutoff(q) + 1
    by_cost = math.isqrt(KERNEL_TERMS_CAP // (width * m_count)) - 1
    by_overflow = math.floor(BOOST_EXPONENT_CAP / -math.log(q))
    return max(min(n, by_cost, by_overflow), 0)


def _action_round(draws: Draws, start: int) -> list[Op]:
    rng = draws.rng
    ops = []
    for offset, (cell, cmd, q_lo, q_hi, n_lo, n_hi, k, fmt) in enumerate(_ACTION_CELLS):
        index = start + offset
        q = _q_band(rng, q_lo, q_hi)
        n_drawn = draws.deal(cell, range(n_lo, n_hi + 1))
        if cmd == "action":
            below = draws.deal(cell + ".below", range(1, M_WINDOW - 1))
            above = M_WINDOW - 1 - below
            n = _capped_n(n_drawn, float(q), M_WINDOW)
            lo, hi = n - below, n + above
            grid = k or _resolving_k(float(q), n)
            argv = ("action-dist", "--q", q, "--n", str(n), "--m-range", f"{lo}:{hi}",
                    "--grid-points", str(grid), "--format", fmt)
            check = {"kind": "action", "n": n, "m_lo": lo, "m_hi": hi, "fmt": fmt}
        else:
            n = _capped_n(n_drawn, float(q), 1)
            m = n + draws.deal(cell + ".m", range(-2, 3))
            grid = k or _resolving_k(float(q), n)
            argv = ("wigner", "--q", q, "--n", str(n), "--m", str(m),
                    "--grid-points", str(grid), "--format", fmt)
            check = {"kind": "wigner", "n": n, "m": m, "k": grid, "fmt": fmt}
        ops.append(Op(index, cell, argv, check))
    return ops


# ---------------------------------------------------------------------------
# verify_domain
# ---------------------------------------------------------------------------

# Both ends of [VERIFY_Q_LO, VERIFY_Q_HI] are pinned and the interior is cut
# into equal log-width bands in mu, from the low end upwards.  Each cell has
# its own n, so n in [2, 10] is covered across the cells and the round's cost does not depend
# on the seed.  An op's cost grows with n and, near q = 1, like 1/sqrt(mu)
# (the quadrature grid), so n falls as q rises: the cells' costs then form
# an even ramp with no gap at the median op, which keeps op_s.p50 steady.
_VERIFY_INTERIOR_N = [9, 8, 6, 5, 4, 4, 3, 2]


def _verify_cells() -> list[tuple[str, float, float, int]]:
    bands = len(_VERIFY_INTERIOR_N)
    mu_hi, mu_lo = -math.log(VERIFY_Q_LO) / 2.0, -math.log(VERIFY_Q_HI) / 2.0
    edges = [mu_hi * (mu_lo / mu_hi) ** (k / bands) for k in range(bands + 1)]
    cells = [("verify.q-min", VERIFY_Q_LO, VERIFY_Q_LO, 10)]
    for k, n in enumerate(_VERIFY_INTERIOR_N):
        cells.append((f"verify.band{k}", _mu_to_q(edges[k]), _mu_to_q(edges[k + 1]), n))
    cells.append(("verify.q-max", VERIFY_Q_HI, VERIFY_Q_HI, 6))
    return cells


_VERIFY_CELLS = _verify_cells()


def _verify_round(draws: Draws, start: int) -> list[Op]:
    ops = []
    for offset, (cell, q_lo, q_hi, n) in enumerate(_VERIFY_CELLS):
        q = _q_band(draws.rng, q_lo, q_hi)
        argv = ("verify", "--q", q, "--n", str(n))
        ops.append(Op(start + offset, cell, argv, {"kind": "verify"}))
    return ops


WORKLOADS = {
    "angle_figure": _angle_round,
    "action_wigner": _action_round,
    "verify_domain": _verify_round,
}


class OpStream:
    """The seeded op sequence of one workload, produced one round at a time."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
        self._make_round = WORKLOADS[workload]
        self._draws = Draws(f"{workload}:{seed}")
        self._next_index = 0

    def next_round(self) -> list[Op]:
        ops = self._make_round(self._draws, self._next_index)
        self._next_index += len(ops)
        return ops


# Fixed points on the failing side of the limits above, one per known defect
# (all fail at the commit the benchmark was written against).  They are run
# untimed after the timed loop and reported apart from the workload's ops.
KNOWN_DEFECTS = {
    "angle_figure": [
        Op(0, "defect.angle-norm.q0.99-n30",
                ("angle-dist", "--n", "30", "--mu-list", "0.005", "--grid-points", "1024",
                 "--format", "json"),
                {"kind": "angle", "columns": 1, "k": 1024, "fmt": "json"}),
        Op(1, "defect.angle-norm.q0.999-n9",
                ("angle-dist", "--n", "9", "--mu-list", "0.0005", "--grid-points", "1024",
                 "--format", "csv"),
                {"kind": "angle", "columns": 1, "k": 1024, "fmt": "csv"}),
    ],
    "action_wigner": [
        Op(0, "defect.boost-overflow",
                ("action-dist", "--q", "0.0001", "--n", "94", "--m-range", "91:97",
                 "--grid-points", "512", "--format", "csv"),
                {"kind": "action", "n": 94, "m_lo": 91, "m_hi": 97, "fmt": "csv"}),
        Op(1, "defect.aliasing.k8",
                ("action-dist", "--q", "0.85", "--n", "5", "--m-range", "2:8",
                 "--grid-points", "8", "--format", "csv"),
                {"kind": "action", "n": 5, "m_lo": 2, "m_hi": 8, "fmt": "csv"}),
        Op(2, "defect.lambda-precision.q-max",
                ("action-dist", "--q", "0.9999", "--n", "5", "--m-range", "3:9",
                 "--grid-points", "2048", "--format", "csv"),
                {"kind": "action", "n": 5, "m_lo": 3, "m_hi": 9, "fmt": "csv"}),
        Op(3, "defect.wigner-precision.q0.97-n32",
                ("wigner", "--q", "0.97", "--n", "32", "--m", "32", "--grid-points", "2048",
                 "--format", "csv"),
                {"kind": "wigner", "n": 32, "m": 32, "k": 2048, "fmt": "csv"}),
    ],
    "verify_domain": [
        Op(0, "defect.verify.q-min", ("verify", "--q", "0.0001", "--n", "10"),
                {"kind": "verify"}),
        Op(1, "defect.verify.q-max", ("verify", "--q", "0.9999", "--n", "2"),
                {"kind": "verify"}),
    ],
}
