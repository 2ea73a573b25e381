"""qps benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload angle_figure --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

With --trace 0 a single closed-loop client runs the workload's ops as
`qps` subprocesses, one after the other, in whole rounds until --seconds
of op time have passed and MIN_OPS ops have run, and reports the
end-to-end metrics.  With --trace 1 the first
round is replayed in-process, untraced and then traced, and the per-layer
metrics come from the traced replay.  Every op's stdout is checked against
an independent invariant (perfbench/checks.py); failed ops are counted and
listed in the result file under perfbench/results/.  After the ops, the
workload's fixed known-defect points (workloads.KNOWN_DEFECTS) are run
untimed and reported apart: they do not count as the workload's ops.
Stdout digests and traced call counts are compared only with earlier runs of the same code:
the record files are keyed by a hash of the qps sources and of this
benchmark.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  QPS_THREADS is removed from the
environment, so the program's default thread pool is what gets measured.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from checks import check_op  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, OpStream  # noqa: E402

QPS_MAIN = "from qps.cli import main; main()"
QPS_THREADS_GIVEN = os.environ.get("QPS_THREADS")
SETUP_EVERY = 4  # ops between two timed `qps --version` runs
IMPORT_REPEATS = 3
OP_TIMEOUT_S = 30.0
LOOP_LIMIT_S = 120.0  # no op starts past this, so a run always ends within 180 s
TAIL_BEYOND = 10  # ops that must lie above the reported tail percentile
MIN_OPS = 40  # every workload's round has 10 ops, so a run has at least 4 rounds
#: highest percentile with TAIL_BEYOND ops above it at MIN_OPS ops (p75); fixed,
#: so runs with more ops report the same percentile
TAIL_PCT = 100.0 * (MIN_OPS - TAIL_BEYOND) / MIN_OPS
METRIC_UNITS = {m["name"]: m["unit"]
                for key in ("end_to_end", "per_layer")
                for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QPS_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def code_identity() -> str:
    """Hash of the qps sources and the benchmark's own code (no git needed)."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def environment(args, op_counts: dict) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpus = os.cpu_count() or 1
    return {
        "nproc": cpus,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "click": version("click"),
        "git_commit": _git_commit(),
        "code_sha256": code_identity(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "QPS_THREADS": "unset" if QPS_THREADS_GIVEN is None
        else f"removed (was {QPS_THREADS_GIVEN!r})",
        "default_pool_threads": min(cpus, 8),
        "op_count": op_counts,
    }


# ---------------------------------------------------------------------------
# subprocess ops
# ---------------------------------------------------------------------------


def run_child(argv, env, tmp_dir: Path) -> dict:
    """Run one `qps` process; wall time from spawn to reap, and its peak RSS."""
    out_path, err_path = tmp_dir / "stdout", tmp_dir / "stderr"
    lock = threading.Lock()
    state = {"done": False, "killed": False}
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", QPS_MAIN, *argv],
                                stdout=out, stderr=err, env=env, cwd=ROOT)

        def kill():
            with lock:
                if not state["done"]:
                    state["killed"] = True
                    proc.kill()

        timer = threading.Timer(OP_TIMEOUT_S, kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        with lock:
            state["done"] = True
            proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        timer.join()
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    return {
        "wall_s": end - start,
        "exit": None if state["killed"] else proc.returncode,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "stdout": stdout,
        "stderr": stderr,
    }


def setup_wall(env, tmp_dir: Path) -> float:
    """Wall time of one `qps --version` (interpreter start plus import qps.cli)."""
    res = run_child(["--version"], env, tmp_dir)
    if res["exit"] != 0 or not res["stdout"].startswith(b"qps, version"):
        raise RuntimeError(f"qps --version failed: {res['stderr'].decode(errors='replace')}")
    return res["wall_s"]


def tail_stat(walls: list[float]) -> tuple[float, int]:
    """(nearest-rank TAIL_PCT percentile, number of ops above it)."""
    ordered = sorted(walls)
    rank = math.ceil(TAIL_PCT / 100.0 * len(ordered))  # 1-based
    return ordered[rank - 1], len(ordered) - rank


def run_timed(workload: str, seed: int, seconds: int, env, tmp_dir: Path) -> dict:
    """Closed loop of whole rounds.  The set-up samples are spread over the
    run (one `qps --version` before the first op and after every
    SETUP_EVERY ops), so setup_s sees the same host load as the ops."""
    setup_wall(env, tmp_dir)  # warm-up, untimed
    setup = [setup_wall(env, tmp_dir)]
    stream = OpStream(workload, seed)
    records = []
    rounds = 0
    setup_time = 0.0  # spent on set-up samples inside the loop; not op time
    start = time.perf_counter()
    elapsed = 0.0  # up to the end of the last op
    while elapsed < LOOP_LIMIT_S and (elapsed - setup_time < seconds or len(records) < MIN_OPS):
        rounds += 1
        for op in stream.next_round():
            records.append((op, run_child(op.argv, env, tmp_dir)))
            if len(records) % SETUP_EVERY == 0:
                mark = time.perf_counter()
                setup.append(setup_wall(env, tmp_dir))
                setup_time += time.perf_counter() - mark
            elapsed = time.perf_counter() - start
            if elapsed >= LOOP_LIMIT_S:
                break
    loop_s = elapsed - setup_time

    ops = []
    for op, res in records:
        reason = check_op(op.check, res["exit"], res["stdout"], res["stderr"])
        ops.append({
            "index": op.index,
            "cell": op.cell,
            "argv": list(op.argv),
            "wall_s": res["wall_s"],
            "exit": res["exit"],
            "maxrss_mb": res["maxrss_mb"],
            "sha256": hashlib.sha256(res["stdout"]).hexdigest(),
            "failure": reason,
        })
    walls = [o["wall_s"] for o in ops]
    tail, tail_beyond = tail_stat(walls)
    failed = sum(o["failure"] is not None for o in ops)
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_ops_s": len(ops) / loop_s,
        "op_s.p50": statistics.median(walls),
        "op_s.tail": tail,
        "peak_rss_mb": max(o["maxrss_mb"] for o in ops),
    }
    return {
        "metrics": metrics,
        "fail_ratio": failed / len(ops),
        "op_s.tail_percentile": TAIL_PCT,
        "op_s.tail_ops_above": tail_beyond,
        "setup_walls_s": setup,
        "elapsed_s": loop_s,
        "rounds": rounds,
        "ops": ops,
        "attempted": len(ops),
        "failed": failed,
    }


# ---------------------------------------------------------------------------
# traced in-process replay
# ---------------------------------------------------------------------------


def import_times(env) -> dict:
    """Median cumulative import time per package from `python -X importtime`."""
    samples = {"qps": [], "numpy": [], "mpmath": [], "click": []}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qps.cli"],
                              capture_output=True, text=True, env=env, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"import qps.cli failed: {proc.stderr[-500:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cum_us, name = (part.strip() for part in line[len("import time:"):].split("|"))
            cumulative.setdefault(name, int(cum_us) * 1e-6)
        deps = {k: cumulative.get(k, 0.0) for k in ("numpy", "mpmath", "click")}
        own = cumulative.get("qps", 0.0) + cumulative.get("qps.cli", 0.0) - sum(deps.values())
        samples["qps"].append(own)
        for k, v in deps.items():
            samples[k].append(v)
    return {f"import.{k}_s": statistics.median(v) for k, v in samples.items()}


def replay(ops, runner, tracer=None):
    """Run ops in-process through the click entry point; per-op caches cleared."""
    from tracer import cache_counts, clear_caches

    import qps.cli

    records = []
    cache_totals = {}
    for op in ops:
        clear_caches()
        op_id = tracer.begin_op() if tracer else None
        start = time.perf_counter()
        result = runner.invoke(qps.cli.cli, list(op.argv), prog_name="qps")
        end = time.perf_counter()
        if tracer:
            tracer.record_op(op_id, start, end)
        for name, (hits, misses) in cache_counts().items():
            acc = cache_totals.setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses
        stderr = result.stderr_bytes or b""
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            stderr += repr(result.exception).encode()
        records.append({"wall_s": end - start, "exit": result.exit_code,
                        "stdout": result.stdout_bytes, "stderr": stderr})
    return records, cache_totals


def per_layer(tracer, traced_wall: float, untraced_wall: float, cache_totals: dict,
              imports: dict, command_names) -> dict:
    from tracer import FORMATTING, TARGETS

    totals = tracer.totals()
    metrics = {}
    for name in (t[0] for t in TARGETS if t[0] not in FORMATTING):
        tot = totals.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = tot["calls"]
        metrics[f"{name}.self_s"] = tot["self_s"]
    theta_calls = metrics["theta.theta3.calls"]
    gaussian, terms = tracer.theta_stats()
    metrics["theta.theta3.gaussian_share"] = gaussian / theta_calls if theta_calls else 0.0
    metrics["theta.theta3.terms_per_call"] = terms / theta_calls if theta_calls else 0.0
    for name, (hits, misses) in cache_totals.items():
        metrics[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for cmd in command_names:
        metrics[f"cli.{cmd}.wall_s"] = totals.get(f"cli.{cmd}", {}).get("total_s", 0.0)
    metrics["cli.format_s"] = sum(totals.get(n, {}).get("total_s", 0.0) for n in FORMATTING)
    metrics["cli.pool_busy_ratio"] = tracer.pool_busy_s() / traced_wall
    metrics.update(imports)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    return metrics


def run_traced(workload: str, seed: int, env) -> dict:
    os.environ.pop("QPS_THREADS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from click.testing import CliRunner

    import qps.cli
    from tracer import Tracer

    imports = import_times(env)
    ops = OpStream(workload, seed).next_round()
    runner = CliRunner()
    plain, _ = replay(ops, runner)
    tracer = Tracer()
    tracer.install()
    try:
        traced, cache_totals = replay(ops, runner, tracer)
    finally:
        tracer.uninstall()
    plain_wall = sum(r["wall_s"] for r in plain)
    traced_wall = sum(r["wall_s"] for r in traced)
    metrics = per_layer(tracer, traced_wall, plain_wall, cache_totals, imports,
                        sorted(qps.cli.cli.commands))

    problems = []
    ops_out = []
    for op, p, t in zip(ops, plain, traced):
        digest = hashlib.sha256(t["stdout"]).hexdigest()
        if hashlib.sha256(p["stdout"]).hexdigest() != digest or p["exit"] != t["exit"]:
            problems.append(f"op {op.index}: tracing changed stdout or exit code")
        ops_out.append({
            "index": op.index, "cell": op.cell, "argv": list(op.argv),
            "wall_s": p["wall_s"], "traced_wall_s": t["wall_s"], "exit": t["exit"],
            "sha256": digest,
            "failure": check_op(op.check, t["exit"], t["stdout"], t["stderr"]),
        })
    failed = sum(o["failure"] is not None for o in ops_out)
    return {
        "metrics": metrics,
        "calls": {k: v["calls"] for k, v in sorted(tracer.totals().items())},
        "spans": tracer.spans,
        "problems": problems,
        "ops": ops_out,
        "attempted": len(ops_out),
        "failed": failed,
        "fail_ratio": failed / len(ops_out),
    }


# ---------------------------------------------------------------------------
# records kept across runs of one seed
# ---------------------------------------------------------------------------


def compare_ledger(path: Path, entries: dict, what: str) -> list[str]:
    """Merge entries into the ledger at path; report keys whose value changed."""
    ledger = json.loads(path.read_text()) if path.exists() else {}
    problems = [f"{what} {key}: {ledger[key]} before, {value} now"
                for key, value in entries.items() if key in ledger and ledger[key] != value]
    ledger.update(entries)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return problems


def run_known_defects(workload: str, env, tmp_dir: Path) -> list[dict]:
    """Run each known-defect point once, untimed; failure None means it now passes."""
    probes = []
    for op in KNOWN_DEFECTS[workload]:
        res = run_child(op.argv, env, tmp_dir)
        probes.append({"cell": op.cell, "argv": list(op.argv),
                       "failure": check_op(op.check, res["exit"], res["stdout"], res["stderr"])})
    return probes


def run_workload(workload: str, args, env, code_id: str, tmp_dir: Path) -> dict:
    if args.trace:
        result = run_traced(workload, args.seed, env)
    else:
        result = run_timed(workload, args.seed, args.seconds, env, tmp_dir)
        result["problems"] = []
    result["known_defects"] = run_known_defects(workload, env, tmp_dir)
    stem = f"{workload}-seed{args.seed}"
    ledger = f"{stem}-code{code_id}"
    digests = {str(o["index"]): [" ".join(o["argv"]), o["sha256"]] for o in result["ops"]}
    result["problems"] += compare_ledger(RESULTS / f"{ledger}-digests.json", digests,
                                         "stdout of op")
    if args.trace:
        result["problems"] += compare_ledger(RESULTS / f"{ledger}-calls.json", result["calls"],
                                             "call count of")
        spans = result.pop("spans")
        with open(RESULTS / f"{stem}-spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(dict(zip(
                    ("op", "span", "parent", "name", "thread", "start", "end"), span))) + "\n")
    result["workload"] = workload
    result["environment"] = environment(args, {workload: result["attempted"]})
    result["failing_ops"] = [f"#{o['index']} {' '.join(o['argv'])} -> {o['failure']}"
                             for o in result["ops"] if o["failure"]]
    path = RESULTS / f"{stem}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def summary_line(result: dict) -> dict:
    correct = result["failed"] == 0 and not result["problems"]
    metrics = {name: {"value": value, "unit": METRIC_UNITS[name]}
               for name, value in result["metrics"].items()}
    return {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def print_report(workload: str, result: dict, line: dict) -> None:
    print(f"== {workload}: {result['attempted']} ops, {result['failed']} failed")
    for name, m in line["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':42s} {result['fail_ratio']:.6g} 1")
    if "op_s.tail_percentile" in result:
        print(f"  op_s.tail is p{result['op_s.tail_percentile']:g} of {result['attempted']} ops"
              f" ({result['op_s.tail_ops_above']} above it)")
    for text in result["failing_ops"]:
        print(f"  FAILED {text[:300]}")
    for probe in result["known_defects"]:
        state = f"still fails: {probe['failure']}" if probe["failure"] else "now passes"
        print(f"  KNOWN DEFECT {probe['cell']} ({' '.join(probe['argv'])}) {state[:300]}")
    for text in result["problems"]:
        print(f"  PROBLEM {text[:300]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qps" / "cli.py").is_file():
        print(f"error: qps sources not found under {SRC}", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= LOOP_LIMIT_S:
        parser.error(f"--seconds must be between 1 and {LOOP_LIMIT_S:g}")

    env = child_env()
    code_id = code_identity()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        for name in names:
            result = run_workload(name, args, env, code_id, Path(tmp))
            lines[name] = summary_line(result)
            print_report(name, result, lines[name])
    if len(names) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{w}.{k}": v for w, line in lines.items()
                        for k, v in line["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
