"""The roadqueue benchmark: one workload, one closed-loop client, one result.

    python3 bench/run.py --workload sweep-c18 --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 18 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics: ops per second
of op time and median op latency over a timed phase of ``--seconds``, the
process's peak resident memory, and ``setup_s``, the median of seven cold
starts in fresh interpreters.  Op and cold-start times are scaled to the
nominal host speed that ``hostspeed.py`` defines, from reference kernels
timed right before and after each of them, so that the host's changing
speed does not show as a change in the program; the unscaled wall-clock
figures are in the run record.  With ``--trace 1`` it runs every op twice,
untraced and traced, and reports per-layer call counts and self times per
op (wall clock, unscaled), each layer's share of the traced time, and the
tracing overhead.

Before timing, each run makes ``WARMUP_OPS`` ops: ``ctmc.simulate`` runs
about a quarter slower over its first six or so calls in a process, and
an analyst who runs many ops does not pay that on each.

Every op's output is checked (see ``checks.py``).  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the run record.  The exit code is 0
only when every op passed.  ``--workload all`` runs each workload in its
own process and prints every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
COLD_STARTS = 7
WARMUP_OPS = 8
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile

END_TO_END_UNITS = {"ops_per_s": "op/s", "op_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def _count(key, value_of):
    def hook(counters, result):
        counters[key] += value_of(result)

    return hook


# Counts read off a traced function's result rather than its calls.
RESULT_COUNTERS = {
    "tandem.solve_fixed_point": _count(
        "tandem.solve_fixed_point.iterations", lambda r: getattr(r, "iterations", 0)
    ),
    "ctmc.simulate": _count("ctmc.simulate.events", lambda r: getattr(r, "events", 0)),
    # computed from the state count, not measured: 8 * N**2 bytes
    "ctmc.build_tandem_2d": _count(
        "ctmc.build_tandem_2d.generator_bytes", lambda r: 8 * len(getattr(r, "states", ())) ** 2
    ),
}


def _calls(*names):
    return lambda st, counters: sum(st.get(n, (0, 0.0, 0.0))[0] for n in names)


def _self(*names):
    return lambda st, counters: sum(st.get(n, (0, 0.0, 0.0))[2] for n in names)


def _counter(key):
    return lambda st, counters: counters.get(key, 0.0)


def _layer_self(layer):
    return lambda st, counters: sum(v[2] for n, v in st.items() if n.startswith(layer + "."))


def _layer_calls(layer):
    return lambda st, counters: sum(v[0] for n, v in st.items() if n.startswith(layer + "."))


# Per-op figures from the traced run: name, unit, total over traced ops.
PER_OP = [
    ("fundamental.service_rate.calls", "calls/op", _calls("fundamental.service_rate")),
    ("fundamental.service_rate.self_s", "s/op", _self("fundamental.service_rate")),
    ("fundamental.service_rates.self_s", "s/op", _self("fundamental.service_rates")),
    ("queueing.solve_birth_death.calls", "calls/op", _calls("queueing.solve_birth_death")),
    ("queueing.solve_birth_death.self_s", "s/op", _self("queueing.solve_birth_death")),
    ("tandem.coupled_rate.calls", "calls/op", _calls("tandem.coupled_rate")),
    ("tandem.coupled_rate.self_s", "s/op", _self("tandem.coupled_rate")),
    ("tandem.conditional_matrix.calls", "calls/op", _calls("tandem.conditional_matrix")),
    ("tandem.conditional_matrix.self_s", "s/op", _self("tandem.conditional_matrix")),
    ("tandem.solve_fixed_point.iterations", "iter/op", _counter("tandem.solve_fixed_point.iterations")),
    ("tandem.solve_fixed_point.self_s", "s/op", _self("tandem.solve_fixed_point")),
    ("tandem.scan_roots.self_s", "s/op", _self("tandem.scan_roots")),
    ("ctmc.calls", "calls/op", _layer_calls("ctmc")),
    ("ctmc.build_tandem_2d.self_s", "s/op", _self("ctmc.build_tandem_2d")),
    ("ctmc.build_tandem_2d.generator_bytes", "computed-B/op", _counter("ctmc.build_tandem_2d.generator_bytes")),
    ("ctmc.exact_stationary.self_s", "s/op", _self("ctmc.exact_stationary")),
    ("ctmc.simulate.events", "events/op", _counter("ctmc.simulate.events")),
    ("ctmc.simulate.self_s", "s/op", _self("ctmc.simulate")),
    (
        "distributions.pushforward.self_s",
        "s/op",
        _self("distributions.speed_dist_triangular", "distributions.travel_time_dist_triangular"),
    ),
    ("config.load_scenario.self_s", "s/op", _self("config.load_scenario")),
    ("cli.main.self_s", "s/op", _self("cli.main")),
] + [(f"{layer}.self_s", "s/op", _layer_self(layer)) for layer in spans.LAYERS]

ORACLE_SELF = _self("ctmc.build_tandem_2d", "ctmc.exact_stationary")
OP_SPAN = "harness.op"  # the root span of each traced op; its self time is the harness's


class Run:
    """Ops attempted, their outputs' problems, and what the guard skipped."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.skipped = workload.refusals()
        self.algorithms: set[str] = set()

    def op(self, ctx, inputs):
        """Run one op; return (seconds, output or None if it raised)."""
        start = time.perf_counter()
        try:
            output = self.workload.run(ctx, inputs)
        except Exception:  # a failed op is counted, not fatal to the run
            output = None
            self.failures.append(f"{inputs!r}: {traceback.format_exc(limit=3).strip()}")
        return time.perf_counter() - start, output

    def check(self, inputs, output) -> bool:
        self.attempted += 1
        if output is None:
            return False  # already recorded by op()
        if isinstance(output, dict) and "algorithm" in output:
            self.algorithms.add(output["algorithm"])
        problems = self.workload.check(inputs, output)
        if problems:
            self.failures.append(f"{inputs!r}: " + "; ".join(problems[:5]))
        return not problems


def timed_phase(run: Run, ctx, inputs, seconds: float, speed: hostspeed.Speed) -> dict:
    """Closed loop for ``seconds``; outputs are checked after the clock stops.

    Each op's time is scaled by the reference kernels timed just before
    and just after it.
    """
    latencies, scaled, outputs = [], [], []
    before = speed.sample()
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        item = next(inputs)
        latency, output = run.op(ctx, item)
        after = speed.sample()
        latencies.append(latency)
        scaled.append(latency * speed.scale(before + after))
        outputs.append((item, output))
        before = after
        if time.perf_counter() >= deadline:
            break
    passed = sum(run.check(item, output) for item, output in outputs)
    return {
        "ops_per_s": passed / sum(scaled),
        "op_p50_ms": 1e3 * statistics.median(scaled),
        "latencies": latencies,
        "scaled": scaled,
    }


def traced_phase(run: Run, ctx, inputs, seconds: float, trace_path: Path) -> dict:
    """Each input once untraced and once traced, for ``seconds`` in all."""
    tracer = spans.Tracer()
    untraced = traced = 0.0
    ops = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or ops == 0:
        item = next(inputs)
        # alternate which run of the pair goes first, so order effects cancel
        for traced_run in (ops % 2 == 0, ops % 2 == 1):
            if traced_run:
                with spans.instrumented(tracer, RESULT_COUNTERS), tracer.span(OP_SPAN):
                    latency, output = run.op(ctx, item)
                traced += latency
            else:
                latency, output = run.op(ctx, item)
                untraced += latency
            run.check(item, output)
        ops += 1
    st = tracer.self_times()
    tracer.save(trace_path)
    metrics = {name: (fn(st, tracer.counters) / ops, unit) for name, unit, fn in PER_OP}
    total = st.get(OP_SPAN, (0, 0.0, 0.0))[1]
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_share"] = (_layer_self(layer)(st, None) / total, "fraction")
    metrics["harness.self_share"] = (st[OP_SPAN][2] / total, "fraction")
    metrics["ctmc.oracle.self_share"] = (ORACLE_SELF(st, None) / total, "fraction")
    metrics["trace.overhead_ratio"] = (traced / untraced - 1.0, "ratio")
    return {"metrics": metrics, "traced_ops": ops}


def cold_starts(workload, seed: int, run: Run, speed: hostspeed.Speed) -> tuple[list[float], list[float]]:
    """``setup_s`` samples, each from a fresh interpreter: (scaled, wall)."""
    scaled, wall = [], []
    cmd = [sys.executable, str(HERE / "cold_start.py"), "--workload", workload.name, "--seed", str(seed)]
    before = speed.sample()
    for _ in range(COLD_STARTS):
        run.attempted += 1
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            proc = None
        after = speed.sample()
        factor = speed.scale(before + after)
        before = after
        if proc is None:
            run.failures.append("cold start took over 60 s")
            continue
        if proc.returncode != 0:
            run.failures.append(f"cold start exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            continue
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if probe["problems"]:
            run.failures.append("cold start: " + "; ".join(probe["problems"][:5]))
        wall.append(probe["setup_s"])
        scaled.append(probe["setup_s"] * factor)
    return scaled, wall


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    """Digest of the package sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    package = ROOT / "src" / "roadqueue"
    for path in sorted(p for p in package.rglob("*") if p.is_file() and p.suffix in (".py", ".json")):
        digest.update(str(path.relative_to(package)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(args, run: Run, extra: dict) -> dict:
    import numpy

    return {
        "workload": run.workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "threads": {var: os.environ.get(var) for var in workloads.THREAD_VARS},
        "load_model": "closed loop, one client",
        "ops_attempted": run.attempted,
        "ops_failed": len(run.failures),
        "error_rate": len(run.failures) / max(run.attempted, 1),
        "skipped": run.skipped,
        "failures": run.failures[:10],
        "algorithms": sorted(run.algorithms),
        **extra,
    }


def run_one(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    run = Run(workload)
    if workload.oracle_in_op and run.skipped:
        print(f"error: every {workload.name} op is refused: {run.skipped[0]['reason']}", file=sys.stderr)
        return 3
    try:
        ctx = workload.context(ROOT)
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up {workload.name}: {exc}", file=sys.stderr)
        return 2
    inputs = workload.inputs(args.seed)
    # warm-up: lazy set-up finishes and the interpreter adapts before timing
    for _ in range(WARMUP_OPS):
        item = next(inputs)
        _, output = run.op(ctx, item)
        run.check(item, output)

    if args.trace:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        trace_path = out / f"spans_{workload.name}.npz"  # the latest traced run only
        phase = traced_phase(run, ctx, inputs, args.seconds, trace_path)
        metrics = phase["metrics"]
        extra = {"traced_ops": phase["traced_ops"], "spans_file": str(trace_path.relative_to(ROOT))}
    else:
        setup, setup_wall = cold_starts(workload, args.seed, run, hostspeed.Speed(hostspeed.SETUP_KERNELS))
        phase = timed_phase(run, ctx, inputs, args.seconds, hostspeed.Speed(workload.reference))
        latencies = phase.pop("latencies")
        scaled = phase.pop("scaled")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {**phase, "peak_rss_mb": peak_rss_mb, "setup_s": statistics.median(setup) if setup else None}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        extra = {
            "timed_ops": len(latencies),
            "reference_kernels": list(workload.reference),
            "setup_samples": setup,
            "setup_wall_samples": setup_wall,
            "wall_op_p50_ms": 1e3 * statistics.median(latencies),
            "wall_ops_per_s": len(latencies) / sum(latencies),
            # only with ten samples beyond it; omitted rather than faked
            "op_p90_ms": (
                1e3 * statistics.quantiles(scaled, n=10)[-1]
                if len(scaled) >= P90_MIN_SAMPLES
                else None
            ),
        }

    correct = not run.failures and all(value is not None for value, _ in metrics.values())
    print(json.dumps({"record": run_record(args, run, extra)}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": len(run.failures),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a process of its own, so peak memory is its own."""
    worst = 0
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and not lines:
            print(f"{name}: exited {proc.returncode} without a result")
            continue
        result = json.loads(lines[-1])
        results[name] = result
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(results))
    return worst


def main(argv=None) -> int:
    workloads.pin_threads()  # before anything imports numpy
    parser = argparse.ArgumentParser(description="roadqueue benchmark")
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "roadqueue" / "__init__.py").is_file():
        print(f"error: no roadqueue sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
