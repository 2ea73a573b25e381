"""In-process tracer owned by the benchmark.

The wrappers live here, not in qps: `Tracer.install` replaces each traced
function at every place a qps module looks its name up (for example
`qps.wigner.theta3` and `qps.cli.angle_table` are separate bindings of
functions defined elsewhere), and `uninstall` puts the originals back.

Each thread keeps its own call stack and totals, so wrappers take no lock.
A call's self time is its duration minus the time of the traced calls it
made on the same thread.  A call that starts with an empty stack on a
thread other than the one running the op is pool work; it is recorded under
the current op's span and adds to the op's pool busy time.

Per-element kernels (called once per grid point or per (t, r, s) term)
keep only counts and accumulated time; every other traced call also leaves
a span (op id, span id, parent id, name, thread, start, end) in memory for
the result file.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from dataclasses import dataclass, field

import qps.cli
import qps.qalgebra
import qps.qseries
import qps.rspoly
import qps.theta
import qps.wigner
from qps.theta import ThetaRepresentation

# (metric prefix, defining module, attribute, per-element kernel)
TARGETS = [
    ("qseries.qbinomial", qps.qseries, "qbinomial", True),
    ("qseries.qfactorial", qps.qseries, "qfactorial", True),
    ("rspoly.rs_function", qps.rspoly, "rs_function", True),
    ("rspoly.rs_coefficients", qps.rspoly, "rs_coefficients", False),
    ("theta.theta3", qps.theta, "theta3", True),
    ("wigner.sinc_kernel", qps.wigner, "sinc_kernel", True),
    ("wigner.wigner_grid", qps.wigner, "wigner_grid", False),
    ("wigner.action_distribution", qps.wigner, "action_distribution", False),
    ("wigner.angle_distribution", qps.wigner, "angle_distribution", True),
    ("wigner.angle_table", qps.wigner, "angle_table", False),
    ("wigner.carlitz_double_sum", qps.wigner, "carlitz_double_sum", False),
    ("wigner.orthogonality_quadrature", qps.wigner, "orthogonality_quadrature", False),
    ("qalgebra.verify_algebra", qps.qalgebra, "verify_algebra", False),
    ("cli.build_verify_report", qps.cli, "build_verify_report", False),
    ("cli.fnum", qps.cli, "fnum", True),
    ("cli.emit", qps.cli, "emit", False),
]

#: traced names whose time is output formatting (`cli.format_s`), not a layer
FORMATTING = ("cli.fnum", "cli.emit", "cli.json.dumps")

#: lru caches whose hit ratio is reported; cleared before every op so each
#: replayed op starts as cold as a fresh `qps` process
CACHES = {
    "wigner.quad_tables": qps.wigner._mp_quad_tables,
    "wigner.qbinomial_row": qps.wigner._qbinomial_row,
}


@dataclass
class _ThreadState:
    is_op_thread: bool
    stack: list = field(default_factory=list)  # frames: [child_time, span_id]
    totals: dict = field(default_factory=dict)  # name -> [calls, self_s, total_s]
    pool_busy_s: float = 0.0
    theta_gaussian: int = 0
    theta_terms: int = 0


class _JsonProxy:
    """Stands in for the `json` module inside qps.cli so `json.dumps` is timed."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._op_thread = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []
        self.op_id = 0

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.get_ident() == self._op_thread)
            self._local.state = st
            with self._states_lock:
                self._states.append(st)
        return st

    def _wrap(self, name: str, fn, kernel: bool):
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        on_theta = name == "theta.theta3"

        def traced(*args, **kwargs):
            st = self._state()
            stack = st.stack
            parent = stack[-1][1] if stack else self.op_id
            span_id = parent if kernel else next(ids)
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tot = st.totals.get(name)
                if tot is None:
                    tot = st.totals[name] = [0, 0.0, 0.0]
                tot[0] += 1
                tot[1] += dur - frame[0]
                tot[2] += dur
                if stack:
                    stack[-1][0] += dur
                elif not st.is_op_thread:
                    st.pool_busy_s += dur
                if not kernel:
                    spans.append((self.op_id, span_id, parent, name,
                                  threading.get_ident(), start, end))
            if on_theta:
                st.theta_terms += result.terms_used
                if result.representation is ThetaRepresentation.GAUSSIAN_SUM:
                    st.theta_gaussian += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _bind_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qps" and not mod_name.startswith("qps."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for name, module, attr, kernel in TARGETS:
            original = getattr(module, attr)
            self._bind_everywhere(original, self._wrap(name, original, kernel))
        json_module = qps.cli.json
        self._restore.append((qps.cli, "json", json_module))
        dumps = self._wrap("cli.json.dumps", json_module.dumps, False)
        qps.cli.json = _JsonProxy(json_module, dumps)
        for cmd_name, command in qps.cli.cli.commands.items():
            self._restore.append((command, "callback", command.callback))
            command.callback = self._wrap(f"cli.{cmd_name}", command.callback, False)

    def uninstall(self) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    def begin_op(self) -> int:
        self.op_id = next(self._ids)
        return self.op_id

    def record_op(self, op_id: int, start: float, end: float) -> None:
        self.spans.append((op_id, op_id, None, "op", self._op_thread, start, end))

    def totals(self) -> dict:
        """name -> {calls, self_s, total_s} merged over threads."""
        merged: dict[str, list] = {}
        for st in self._states:
            for name, (calls, self_s, total_s) in st.totals.items():
                acc = merged.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += self_s
                acc[2] += total_s
        return {k: {"calls": v[0], "self_s": v[1], "total_s": v[2]} for k, v in merged.items()}

    def pool_busy_s(self) -> float:
        return sum(st.pool_busy_s for st in self._states)

    def theta_stats(self) -> tuple[int, int]:
        return (sum(st.theta_gaussian for st in self._states),
                sum(st.theta_terms for st in self._states))


def clear_caches() -> None:
    for cache in CACHES.values():
        cache.cache_clear()


def cache_counts() -> dict:
    """name -> (hits, misses) since the last clear_caches()."""
    counts = {}
    for name, cache in CACHES.items():
        info = cache.cache_info()
        counts[name] = (info.hits, info.misses)
    return counts
