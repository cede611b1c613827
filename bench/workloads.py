"""The benchmark's workloads: what one op is, its seeded inputs, its checks.

Every workload is a closed loop with one client: the next op starts only
when the previous one has finished.  Inputs come from a stream seeded by
the benchmark's ``--seed``; the package receives only those inputs, and
every op goes through the public API or ``roadqueue.cli.main`` in-process.

Why each workload exists, which layer it loads and which it bypasses.
Later work names these workloads when it predicts what should move.

``sweep-c18``
    One op is ``roadqueue sweep --steps 40`` on the bundled two-section
    scenario (c1 = c2 = 18), with seeded lambda endpoints near 0.1..2.0.
    The headline user path.  Per lambda point, one half to two thirds is
    the dense ``tv_vs_exact_2d`` oracle (``ctmc.build_tandem_2d`` and
    ``ctmc.exact_stationary``) and the rest is the bisection fixed point
    (``tandem``, ``queueing``, ``fundamental``), plus ``cli`` formatting.
    It is the only workload that reuses one geometry across many lambda
    values, so caching structure within a sweep shows here and nowhere
    else.

``oracle-c54``
    One op is ``roadqueue solve-tandem --lambda L`` with L seeded over
    0.1..2.0, on the bundled geometry scaled to 300 m (c1 = c2 = 54,
    N = 3025 joint states).  ``ctmc.build_tandem_2d`` and the dense
    ``ctmc.exact_stationary`` are more than 90% of each op, so a faster
    joint-chain oracle (level reduction) shows here, while changes to the
    decomposition's solver core should leave it flat.

``roots-c180``
    One op is library ``solve_fixed_point``, ``scan_roots``,
    ``tandem_measures`` and a travel-time pushforward at one seeded
    lambda, on the 1 km geometry (c1 = c2 = 180).  No oracle runs: the
    dense generator at this size is 8.6 GB, which is why the CLI form
    (``solve-tandem --scan-roots``, which always runs the oracle) is
    refused by the size guard and recorded as skipped.  The time goes to
    1000 downstream product-form solves in ``scan_roots`` and to the
    per-state ``coupled_rate`` calls behind ``conditional_matrix``, so a
    vectorised solver core shows here and oracle changes should not.

``simulate-c18``
    One op is ``roadqueue simulate --lambda 0.8 --events 1000000`` on
    section 1 of the bundled scenario with a seeded ``--seed``.  Almost
    all of it is the pure-Python event loop of ``ctmc.simulate``; no
    tandem code runs.  It is the "no change" workload for oracle and
    solver-core work and the one that shows simulation work.  ``compare``
    adds only a 19-state dense solve on top of ``simulate``, so it is not
    a workload of its own.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

# Cap on the dense joint-chain generator, 8 * N**2 bytes for N joint
# states.  At c = 54 (a 73 MB generator) a run peaks at 265 MB resident,
# so the oracle holds about 3.5 copies and the cap keeps a run under 1 GB;
# c = 54 passes and c = 180 (8.6 GB) does not.
GENERATOR_CAP_BYTES = 256 * 2**20

# BLAS/OpenMP pools, pinned to one thread before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SIMULATE_LAMBDA = 0.8
SIMULATE_EVENTS = 1_000_000


def pin_threads() -> None:
    """Pin the numeric thread pools; call before anything imports numpy."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def dense_oracle_refusal(c1: int, c2: int, cap_bytes: int = GENERATOR_CAP_BYTES) -> str | None:
    """Why a dense joint-chain oracle at (c1, c2) must not run, or None.

    Pure integer arithmetic: nothing the size of the chain is allocated.
    """
    states = (c1 + 1) * (c2 + 1)
    generator_bytes = 8 * states * states
    if generator_bytes <= cap_bytes:
        return None
    return (
        f"dense joint-chain generator needs {generator_bytes / 1e9:.1f} GB "
        f"(N = {states} joint states), above the {cap_bytes / 2**20:.0f} MiB cap"
    )


@dataclass(frozen=True)
class Context:
    """What an op needs: the package's modules and the scenario file."""

    cli: object
    config: object
    tandem: object
    distributions: object
    scenario_path: str | None


def import_package(root: Path):
    """Import roadqueue from the checkout's ``src``, never from elsewhere."""
    src = root / "src"
    if not (src / "roadqueue" / "__init__.py").is_file():
        raise ImportError(f"no roadqueue package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("roadqueue")
    if Path(package.__file__).resolve().parent != (src / "roadqueue").resolve():
        raise ImportError(f"roadqueue was imported from {package.__file__}, not {src}")
    return package


def scaled_scenario_path(root: Path, length_m: float) -> str:
    """Write the bundled scenario with both sections scaled to ``length_m``.

    Capacities follow from rho_j * L, so 300 m gives c = 54 and 1 km
    gives c = 180.  The file lives in the checkout's ``.bench_out``.
    """
    bundled = root / "src" / "roadqueue" / "data" / "default_scenario.json"
    doc = json.loads(bundled.read_text(encoding="utf-8"))
    for section in doc["sections"]:
        section["L"] = length_m
        section.pop("c", None)
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"scenario_L{length_m:g}.json"
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return str(path)


def run_cli(ctx: Context, argv: list[str]) -> str:
    """Run ``roadqueue.cli.main`` in-process and return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ctx.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"roadqueue {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


# Draws come in shuffled blocks that cover the input range once each
# (stratified sampling), so every run sees about the same mix of cheap
# and costly inputs and the median op is not moved by which inputs the
# seed happened to pick.

def _lambda_draw(rng: random.Random) -> list[str]:
    # one lambda from each 0.1-wide stratum of 0.1..2.0
    block = [f"{0.1 + 0.1 * k + 0.001 * rng.randint(0, 99):.3f}" for k in range(19)]
    rng.shuffle(block)
    return block


# --- sweep-c18 -------------------------------------------------------------

def _sweep_draw(rng: random.Random) -> list[tuple[str, str]]:
    # Every lambda of the 40-point grid lands on the 0.005 grid of the
    # reference table: from = 0.005 * i, spacing 0.045 or 0.05.
    block = []
    for spacing in (0.045, 0.05):
        start = 0.005 * rng.randint(10, 30)
        block.append((f"{start:.3f}", f"{start + 39 * spacing:.3f}"))
    rng.shuffle(block)
    return block


def _sweep_run(ctx: Context, inputs: tuple[str, str]) -> str:
    lam_from, lam_to = inputs
    return run_cli(
        ctx, ["sweep", "--lambda-from", lam_from, "--lambda-to", lam_to, "--steps", "40"]
    )


def _sweep_check(inputs, output: str) -> list[str]:
    return checks.sweep_problems(output, steps=40, reference=checks.sweep_reference())


# --- oracle-c54 ------------------------------------------------------------

def _oracle_run(ctx: Context, lam: str) -> dict:
    return json.loads(
        run_cli(ctx, ["solve-tandem", "--lambda", lam, "--config", ctx.scenario_path])
    )


def _oracle_check(lam: str, payload: dict) -> list[str]:
    return checks.tandem_payload_problems(payload, float(lam), capacity=54, tol=1e-10)


# --- roots-c180 ------------------------------------------------------------

def _roots_run(ctx: Context, lam: str) -> dict:
    lam = float(lam)
    config = ctx.config.load_scenario(ctx.scenario_path).tandem()
    result = ctx.tandem.solve_fixed_point(config, lam)
    brackets = ctx.tandem.scan_roots(config, lam)
    meas = ctx.tandem.tandem_measures(result, lam)
    travel = ctx.distributions.travel_time_dist_triangular(
        result.marginal, config.section1, config.convention
    )
    return {
        "theta": result.theta,
        "residual": result.residual,
        "iterations": result.iterations,
        "marginal": result.marginal.probs.tolist(),
        "downstream": result.downstream.probs.tolist(),
        "blocking": meas.blocking,
        "throughput": meas.throughput,
        "root_brackets": brackets,
        "travel_time_support": travel.support.tolist(),
        "travel_time_probs": travel.probs.tolist(),
    }


def _roots_check(lam: str, payload: dict) -> list[str]:
    return checks.roots_payload_problems(payload, float(lam), capacity=180, tol=1e-10)


# --- simulate-c18 ----------------------------------------------------------

def _simulate_draw(rng: random.Random) -> list[str]:
    return [str(rng.randint(0, 2**31 - 1))]


def _simulate_run(ctx: Context, seed: str) -> dict:
    return json.loads(
        run_cli(
            ctx,
            [
                "simulate",
                "--lambda", str(SIMULATE_LAMBDA),
                "--events", str(SIMULATE_EVENTS),
                "--seed", seed,
                "--section", "1",
            ],
        )
    )


def _simulate_check(seed: str, payload: dict) -> list[str]:
    return checks.simulate_payload_problems(
        payload, int(seed), events=SIMULATE_EVENTS, capacity=18
    )


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload; see the module docstring for the why."""

    name: str
    why: str
    length_m: float | None  # scaled section length; None = bundled scenario
    capacity: int  # c1 = c2 of the geometry
    oracle_in_op: bool  # the op itself runs the dense joint-chain oracle
    # Reference kernels (see hostspeed.py) whose work looks like the op's:
    # "loop" for an interpreted event loop, "solver" for many small Python
    # calls and small-array numpy ops, "dense" for LAPACK solves.
    reference: tuple[str, ...]
    draw: Callable[[random.Random], list]  # the next block of op inputs
    run: Callable[[Context, object], object]
    check: Callable[[object, object], list[str]]
    # The CLI command an analyst would type for this work when the op
    # takes the library path because that command runs the oracle.
    oracle_cli_form: str | None = None

    def refusals(self) -> list[dict]:
        """Oracle-bearing cases the size guard refuses, with the reason."""
        reason = dense_oracle_refusal(self.capacity, self.capacity)
        if reason is None:
            return []
        cases = []
        if self.oracle_in_op:
            cases.append({"case": f"{self.name} op", "reason": reason})
        if self.oracle_cli_form:
            cases.append({"case": f"cli {self.oracle_cli_form}", "reason": reason})
        return cases

    def inputs(self, seed: int):
        """The op inputs for ``seed``, as an endless deterministic stream."""
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            yield from self.draw(rng)

    def context(self, root: Path) -> Context:
        import_package(root)
        modules = {
            name: importlib.import_module(f"roadqueue.{name}")
            for name in ("cli", "config", "tandem", "distributions")
        }
        path = None if self.length_m is None else scaled_scenario_path(root, self.length_m)
        return Context(scenario_path=path, **modules)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-c18",
            why="CLI 40-step tandem sweep at c=18: dense oracle and bisection mixed, one geometry over many lambdas",
            length_m=None,
            capacity=18,
            oracle_in_op=True,
            reference=("solver", "dense"),
            draw=_sweep_draw,
            run=_sweep_run,
            check=_sweep_check,
        ),
        Workload(
            name="oracle-c54",
            why="CLI solve-tandem at c=54: dense joint-chain build and solve are over 90% of each op",
            length_m=300.0,
            capacity=54,
            oracle_in_op=True,
            reference=("dense",),
            draw=_lambda_draw,
            run=_oracle_run,
            check=_oracle_check,
        ),
        Workload(
            name="roots-c180",
            why="library fixed point, root scan and pushforward at c=180: solver core only, no oracle",
            length_m=1000.0,
            capacity=180,
            oracle_in_op=False,
            reference=("solver",),
            draw=_lambda_draw,
            run=_roots_run,
            check=_roots_check,
            oracle_cli_form="solve-tandem --scan-roots at c1=c2=180",
        ),
        Workload(
            name="simulate-c18",
            why="CLI simulate of 1e6 events at c=18: the pure-Python event loop, no tandem code",
            length_m=None,
            capacity=18,
            oracle_in_op=False,
            reference=("loop",),
            draw=_simulate_draw,
            run=_simulate_run,
            check=_simulate_check,
        ),
    )
}
