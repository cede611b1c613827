"""Tests of the benchmark harness itself: guard, spans, checks, inputs.

    python3 -m pytest -q bench/tests
"""

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SWEEP_HEADER = "lambda,theta,blocking,expected_count,travel_time,tv_vs_exact_2d\n"


def test_size_guard_refuses_c180_without_allocating():
    tracemalloc.start()
    try:
        reason = workloads.dense_oracle_refusal(180, 180)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reason is not None and "N = 32761" in reason
    assert peak < 64 * 1024
    assert workloads.dense_oracle_refusal(54, 54) is None


def test_guard_records_refused_cases_as_skipped():
    assert workloads.WORKLOADS["oracle-c54"].refusals() == []
    (skip,) = workloads.WORKLOADS["roots-c180"].refusals()
    assert "solve-tandem" in skip["case"] and "8.6 GB" in skip["reason"]
    too_big = dataclasses.replace(workloads.WORKLOADS["oracle-c54"], capacity=180)
    assert [case["case"] for case in too_big.refusals()] == ["oracle-c54 op"]


def test_self_times_on_synthetic_nested_spans():
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]).__next__
    tracer = spans.Tracer(clock=clock)
    with tracer.span("op"):  # 0 .. 10
        with tracer.span("a"):  # 1 .. 4
            with tracer.span("b"):  # 2 .. 3
                pass
        with tracer.span("a"):  # 5 .. 9
            pass
    st = tracer.self_times()
    assert st["op"] == (1, 10.0, 3.0)
    assert st["a"] == (2, 7.0, 6.0)
    assert st["b"] == (1, 1.0, 1.0)


def test_wrappers_reach_every_namespace_and_are_removed():
    workloads.import_package(ROOT)
    from roadqueue import cli, ctmc, default_scenario, queueing, tandem

    originals = (tandem.solve_triangular, cli.decomposition_diagnostic, cli.scan_roots)
    tracer = spans.Tracer()
    with spans.instrumented(tracer, run.RESULT_COUNTERS):
        assert tandem.solve_triangular is queueing.solve_triangular
        assert cli.decomposition_diagnostic is ctmc.decomposition_diagnostic
        assert cli.simulate is ctmc.simulate and cli.scan_roots is tandem.scan_roots
        assert tandem.solve_triangular is not originals[0]
        with tracer.span(run.OP_SPAN):
            result = tandem.solve_fixed_point(default_scenario().tandem(), 0.5)
    assert (tandem.solve_triangular, cli.decomposition_diagnostic, cli.scan_roots) == originals
    st = tracer.self_times()
    assert st["queueing.solve_triangular"][0] == result.iterations + 2
    assert tracer.counters["tandem.solve_fixed_point.iterations"] == result.iterations
    # a function that no longer exists reads 0, it does not crash
    assert run._calls("tandem.renamed_away")(st, tracer.counters) == 0
    assert run._self("tandem.renamed_away")(st, tracer.counters) == 0.0


def _sweep_csv(ks, reference, theta_scale=1.0):
    rows = []
    for k in ks:
        theta, blocking = reference["rows"][k]
        rows.append(f"{k * reference['step']!r},{theta * theta_scale!r},{blocking!r},1.0,1.0,0.3")
    return SWEEP_HEADER + "\n".join(rows) + "\n"


def test_sweep_check_catches_perturbed_theta_but_not_tolerance_moves():
    reference = checks.sweep_reference()
    ks = range(20, 60)
    assert checks.sweep_problems(_sweep_csv(ks, reference), 40, reference) == []
    # a root finder that lands elsewhere within the 1e-10 residual still passes
    assert checks.sweep_problems(_sweep_csv(ks, reference, 1 - 1e-9), 40, reference) == []
    problems = checks.sweep_problems(_sweep_csv(ks, reference, 1 - 1e-6), 40, reference)
    assert problems and all("theta" in p for p in problems)


def _tandem_payload(size=55):
    law = [1.0 / size] * size
    return {
        "theta": 0.5,
        "residual": 1e-11,
        "marginal": list(law),
        "downstream": list(law),
        "blocking": law[-1],
        "tv_vs_exact_2d": 0.2,
    }


def test_tandem_check_catches_perturbed_theta_and_unnormalized_law():
    assert checks.tandem_payload_problems(_tandem_payload(), 0.8, capacity=54, tol=1e-10) == []
    payload = _tandem_payload()
    payload["marginal"][3] *= 1 + 1e-9
    (problem,) = checks.tandem_payload_problems(payload, 0.8, capacity=54, tol=1e-10)
    assert "marginal sums to" in problem
    payload = _tandem_payload()
    payload["theta"] = 0.81
    (problem,) = checks.tandem_payload_problems(payload, 0.8, capacity=54, tol=1e-10)
    assert "theta" in problem
    payload = _tandem_payload()
    payload["residual"] = 1e-9
    (problem,) = checks.tandem_payload_problems(payload, 0.8, capacity=54, tol=1e-10)
    assert "residual" in problem


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    workload = workloads.WORKLOADS[name]

    def take(seed):
        return list(itertools.islice(workload.inputs(seed), 50))

    assert take(7) == take(7)
    assert take(7) != take(8)


def test_sweep_inputs_stay_on_the_reference_grid():
    reference = checks.sweep_reference()
    for lam_from, lam_to in itertools.islice(workloads.WORKLOADS["sweep-c18"].inputs(1), 200):
        grid = np.linspace(float(lam_from), float(lam_to), 40)
        keys = np.rint(grid / reference["step"]).astype(int)
        assert np.abs(grid - keys * reference["step"]).max() < 1e-9
        assert set(keys.tolist()) <= set(reference["rows"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_op_passes_its_checks(name):
    workload = workloads.WORKLOADS[name]
    ctx = workload.context(ROOT)
    first = next(workload.inputs(1))
    assert workload.check(first, workload.run(ctx, first)) == []


def test_speed_scales_op_times_by_nominal_over_measured_kernel_time():
    for kernels in [w.reference for w in workloads.WORKLOADS.values()] + [hostspeed.SETUP_KERNELS]:
        speed = hostspeed.Speed(kernels)
        assert speed.nominal_s == sum(hostspeed.NOMINAL_S[k] for k in kernels)
        samples = speed.sample()
        assert len(samples) == hostspeed.REPEATS and min(samples) > 0
    assert speed.scale([speed.nominal_s / 2] * 4) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        hostspeed.Speed(("gpu",))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-c18", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_runs_report_exactly_the_declared_metrics(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    workload = workloads.WORKLOADS["roots-c180"]
    trial = run.Run(workload)
    inputs = workload.inputs(1)
    phase = run.traced_phase(trial, workload.context(ROOT), inputs, 0.0, tmp_path / "spans.npz")
    assert trial.failures == [] and phase["traced_ops"] == 1
    reported = {name: unit for name, (_, unit) in phase["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert phase["metrics"]["ctmc.calls"][0] == 0
    assert (tmp_path / "spans.npz").is_file()
