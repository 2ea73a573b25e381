"""The numpy Wigner spectrum against the scalar t/r/s loop it replaced, its
exact grouped sum against math.fsum, the blocked grid apply against one
whole-grid cosine matrix, and the action marginal against the spectrum's
f = 0 row, all compared bitwise."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qps import (
    PhaseGrid,
    QParam,
    action_distribution,
    angle_distribution_from_wigner,
    qfactorial,
    wigner_grid,
)
from qps import wigner
from qps.errors import ImaginaryResidueError
from qps.rspoly import _rs_row
from qps.wigner import (
    _SPECTRUM_BLOCK,
    _limb_counts,
    _round_limbs,
    _sinc_at,
    _t_cutoff,
    _wigner_spectrum,
)

SRC = Path(__file__).resolve().parents[1] / "src"

#: pref * (cos(outer(theta, f)) @ amps) over each whole grid, one hex line per
#: (n, q, m, K) case in argv[1]
ONE_SHOT_APPLY = """
import json, sys
import numpy as np
from qps import PhaseGrid, QParam
from qps.wigner import _sinc_at, _wigner_spectrum
for n, q, m, k in json.loads(sys.argv[1]):
    pref, freqs, amps = _wigner_spectrum(n, QParam.from_q(q), 1e-12, _sinc_at(m))
    points = PhaseGrid.uniform(k).points
    print((pref * (np.cos(np.outer(points, freqs)) @ amps)).tobytes().hex())
"""


def one_shot_apply(cases):
    """The K x F matrix apply that wigner_grid blocks, run in a fresh
    interpreter on one OpenBLAS thread: a threaded dgemv splits the K rows
    between threads at points that need not be multiples of 4, so its last
    bits depend on the thread count."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", ONE_SHOT_APPLY, json.dumps(cases)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return proc.stdout.split()


def reference_spectrum(n, qp, tol, kernel):
    """The scalar (t, r, s) loop with a per-slice math.fsum, kept as the oracle
    that the numpy assembly must match byte for byte."""
    t_cut = _t_cutoff(qp.mu, tol)
    a = _rs_row(n, qp)
    pref = 1.0 / qfactorial(n, qp)
    weight = [[a[r] * a[s] for s in range(n + 1)] for r in range(n + 1)]
    slices = {}
    for t in range(-t_cut, t_cut + 1):
        wt = math.exp(-qp.mu * t * t)
        ker_by_sum = [0.5 * (kernel(t + j) + kernel(j - t)) for j in range(2 * n + 1)]
        for r in range(n + 1):
            for s in range(n + 1):
                ker = ker_by_sum[r + s]
                if ker == 0.0:
                    continue
                slices.setdefault(t + r - s, []).append(wt * weight[r][s] * ker)
    amp = {f: math.fsum(parts) for f, parts in slices.items()}
    residue = pref * max((abs(amp[f] - amp.get(-f, 0.0)) for f in amp), default=0.0)
    if residue >= tol:
        raise ImaginaryResidueError("wigner_spectrum", residue, tol)
    folded = {}
    for f, x in amp.items():
        folded[abs(f)] = folded.get(abs(f), 0.0) + x
    freqs = np.array(sorted(folded), dtype=int)
    amps = np.array([folded[f] for f in sorted(folded)], dtype=float)
    return pref, freqs, amps


def assert_same_bytes(got, want):
    (pref, freqs, amps), (pref_ref, freqs_ref, amps_ref) = got, want
    assert pref.hex() == pref_ref.hex()
    assert freqs.tolist() == freqs_ref.tolist()
    assert amps.tobytes() == amps_ref.tobytes()


def grouped_fsum_matches(groups):
    slots = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    values = np.array([x for g in groups for x in g], dtype=float)
    sums = _round_limbs(_limb_counts(slots, values, len(groups)))
    return [s.hex() for s in sums] == [math.fsum(g).hex() for g in groups]


class TestMatchesScalarLoop:
    @pytest.mark.parametrize(
        "n,q,m,tol",
        [
            # the benchmark's Wigner and action cells
            (150, 0.0811, 152, 1e-12),
            (63, 0.004, 63, 1e-8),
            (5, 0.83, 4, 1e-12),
            (0, 0.5, 0, 1e-12),
            (0, 0.5, 1, 1e-8),
            # a_r underflows to +-0 for most r; blocks of r rows
            (300, 1e-4, 300, 1e-8),
            # many t: blocks of several whole t rows
            (5, 0.9999, 5, 1e-8),
            (32, 0.97, 32, 1e-12),
        ],
    )
    def test_sinc_kernel(self, n, q, m, tol):
        qp = QParam.from_q(q)
        kernel = _sinc_at(m)
        assert_same_bytes(
            _wigner_spectrum(n, qp, tol, kernel), reference_spectrum(n, qp, tol, kernel)
        )

    def test_window_kernel(self, monkeypatch):
        seen = []

        def recording(n, qp, tol, kernel):
            seen.append((n, qp, tol, kernel))
            return _wigner_spectrum(n, qp, tol, kernel)

        monkeypatch.setattr(wigner, "_wigner_spectrum", recording)
        angle_distribution_from_wigner(3, 0.4, QParam.from_q(0.5), m_cut=40)
        (args,) = seen
        assert_same_bytes(_wigner_spectrum(*args), reference_spectrum(*args))

    def test_kernel_called_once_per_centre(self):
        qp = QParam.from_q(0.5)
        n, tol = 7, 1e-12
        calls = []

        def kernel(c2):
            calls.append(c2)
            return 1.0 if c2 == 2 * n else 0.0

        _wigner_spectrum(n, qp, tol, kernel)
        t_cut = _t_cutoff(qp.mu, tol)
        assert sorted(calls) == list(range(-t_cut, 2 * n + t_cut + 1))

    def test_memory_bound(self):
        qp = QParam.from_q(0.0811)
        _wigner_spectrum(150, qp, 1e-12, _sinc_at(152))
        tracemalloc.start()
        try:
            _wigner_spectrum(150, qp, 1e-12, _sinc_at(152))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestActionIsZeroFrequency:
    @pytest.mark.parametrize("q", [1e-4, 0.004, 0.3, 0.5, 0.85, 0.97])
    def test_matches_full_t_spectrum(self, q):
        # the f = 0 row of the spectrum holds t = s - r for every pair (r, s)
        # once the Gaussian truncation reaches |t| = n
        qp = QParam.from_q(q)
        for n in range(13):
            tol = math.exp(-qp.mu * n * n)
            assert _t_cutoff(qp.mu, tol) >= n
            for m in range(-2, n + 3):
                pref, freqs, amps = reference_spectrum(n, qp, tol, _sinc_at(m))
                amp0 = float(amps[0]) if freqs[0] == 0 else 0.0
                assert action_distribution(n, m, qp).hex() == (pref * amp0).hex(), (n, m)

    @pytest.mark.parametrize(
        "n,q,guard",
        [(300, 0.9999, r"1/\(q;q\)_n overflows"), (800, 0.997, "a_r a_s overflows")],
    )
    def test_same_overflow_as_spectrum(self, n, q, guard):
        qp = QParam.from_q(q)
        for m in (-1, 0, n, n + 1):
            with pytest.raises(OverflowError, match=guard) as spectrum:
                _wigner_spectrum(n, qp, 1e-8, _sinc_at(m))
            with pytest.raises(OverflowError) as action:
                action_distribution(n, m, qp)
            assert str(action.value) == str(spectrum.value)


class TestGridApply:
    # F = 81 and 71 frequencies: blocks of 404 and 460 rows
    @pytest.mark.parametrize("n,q,m", [(150, 0.0811, 152), (32, 0.97, 32)])
    def test_matches_one_shot_apply(self, n, q, m):
        qp = QParam.from_q(q)
        _, freqs, _ = _wigner_spectrum(n, qp, 1e-12, _sinc_at(m))
        rows = _SPECTRUM_BLOCK // len(freqs) // 4 * 4
        ks = [8, 257, 4096, 4099, rows + 1]
        want = one_shot_apply([(n, q, m, k) for k in ks])
        got = [wigner_grid(n, m, qp, PhaseGrid.uniform(k)).tobytes().hex() for k in ks]
        assert got == want

    def test_memory_bound(self):
        # the whole 16384 x 81 cosine matrix alone is 10 MiB
        qp = QParam.from_q(0.0811)
        grid = PhaseGrid.uniform(16384)
        wigner_grid(150, 152, qp, grid)
        tracemalloc.start()
        try:
            wigner_grid(150, 152, qp, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


# every finite magnitude from subnormals up to 1e300, plus the edge values
finite = st.floats(min_value=-1e300, max_value=1e300) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e300, 1.0]
)


class TestExactGroupedSum:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(finite, min_size=1, max_size=12), min_size=1, max_size=6))
    def test_matches_fsum(self, groups):
        assert grouped_fsum_matches(groups)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(finite, min_size=1, max_size=12), min_size=1, max_size=6),
           st.randoms(use_true_random=False))
    def test_exact_cancellation(self, groups, rnd):
        # each group gains the negation of its own values: the exact sum is 0
        cancelled = []
        for g in groups:
            both = g + [-x for x in g]
            rnd.shuffle(both)
            cancelled.append(both)
        assert grouped_fsum_matches(cancelled)

    def test_zero_groups(self):
        assert grouped_fsum_matches([[0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0, 5e-324, -5e-324]])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5000))
    def test_many_addends(self, seed, count):
        rng = np.random.default_rng(seed)
        # log-uniform magnitudes over the whole range, random signs, and
        # a run of near-equal values that cancel down to the last bits
        wide = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-320, 300, count)
        close = rng.choice([-1.0, 1.0], count) * (1.0 + rng.uniform(0, 1e-12, count))
        narrow = rng.uniform(-1.0, 1.0, count) * 2.0 ** rng.integers(-60, 60, count)
        assert grouped_fsum_matches([wide.tolist(), close.tolist(), narrow.tolist(), [3.5]])
