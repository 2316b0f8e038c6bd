"""Self-tests of the benchmark, on short runs (one process per workload).

    python3 -m pytest perfbench -q

They take about three minutes; most of it is the verify-all process.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import pace  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

SEED = 3
COUNTS = (
    "algebras.multiply_calls",
    "lie.leibniz_rows",
    "linalg.nullspace_large_calls",
    "linalg.nullspace_small_calls",
)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@functools.lru_cache(maxsize=None)
def result(workload: str, trace: int) -> dict:
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_run_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke(workload, trace):
    res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    names = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in res["metrics"].items()} == names
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
    if trace:
        assert res["metrics"]["trace.uncovered_s"]["value"] < 0.1
    else:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_verify_all_reads_every_suite():
    metrics = result("verify-all", 1)["metrics"]
    for name in ("cli.suite.algebras_s", "cli.suite.derivations_s",
                 "algebras.composition_sweep_s", "jordan.identity_sweep_s"):
        assert metrics[name]["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_exactly(workload):
    first = result(workload, 1)["metrics"]
    spans = run.OUT / f"spans-test-{workload}.json"
    again = run.measure(workload, SEED, True, spans, timeout=170)
    assert not again.messages
    for name in COUNTS:
        assert again.layers[name] == first[name]["value"], name
        assert again.layers[name] > 0, name


def test_tracer_wraps_every_binding_and_removes_all():
    import exatlas
    import exatlas.cli
    from exatlas import algebras, cli, jordan, lie, linalg

    modules = tracer._package_modules()
    before = {(id(m), k): id(v) for m in modules for k, v in vars(m).items()}
    multiply = algebras.FiniteAlgebra.__dict__["multiply_coords"]
    complex_numbers = algebras.complex_algebra()

    t = tracer.Tracer("test")
    t.install()
    try:
        assert lie.nullspace_with_info is linalg.nullspace_with_info
        assert getattr(lie.nullspace_with_info, tracer.MARKER)
        assert getattr(exatlas.derivation_algebra, tracer.MARKER)
        assert getattr(cli.is_negative_definite, tracer.MARKER)
        assert getattr(jordan.is_positive_definite, tracer.MARKER)
        assert getattr(cli.run_verify, tracer.MARKER)
        assert tracer.count_wrapped() > 0
        with pytest.raises(RuntimeError):
            t.install()
        der = lie.derivation_algebra(algebras.cayley_dickson_double(complex_numbers))
        assert der.dim == 3
    finally:
        t.remove()

    assert tracer.count_wrapped() == 0
    assert {(id(m), k): id(v) for m in modules for k, v in vars(m).items()} == before
    assert algebras.FiniteAlgebra.__dict__["multiply_coords"] is multiply
    assert [(s[0], s[3]) for s in t.spans] == [
        ("algebras.cayley_dickson_double", None),
        ("lie.derivation_algebra", None),
        ("lie.leibniz_constraint_rows", 1),
        ("linalg.nullspace_with_info", 1),
    ]
    assert t.multiply_calls > 0
    layers = t.layer_metrics()
    assert layers["linalg.nullspace_small_calls"] == 1 and layers["lie.leibniz_rows"] > 0


def test_pace_factor_takes_the_mean_of_the_window_and_widens_it():
    fast, slow = pace.REFERENCE_PIECE_S, 2 * pace.REFERENCE_PIECE_S
    pieces = [(i * 0.01, fast if i < 100 else slow, 0.0) for i in range(200)]
    assert pace.pace_factor(pieces, 0.0, 0.99) == 1.0
    assert pace.pace_factor(pieces, 1.0, 1.99) == 0.5
    # half the window in each state: the mean, not either mode
    assert abs(pace.pace_factor(pieces, 0.5, 1.49) - 2 / 3) < 0.01
    # a window holding no piece is widened to the MIN_PIECES nearest ones
    assert pace.pace_factor(pieces, 0.305, 0.306) == 1.0
    assert pace.pace_factor(pieces, -5.0, -4.0) == 1.0
    assert pace.pace_factor(pieces[: pace.MIN_PIECES - 1], 0.0, 1.0) is None


def test_pace_factor_clips_a_stray_piece():
    pieces = [(i * 0.01, pace.REFERENCE_PIECE_S, 0.0) for i in range(100)]
    pieces[50] = (0.5, 1000 * pace.REFERENCE_PIECE_S, 0.0)
    assert pace.pace_factor(pieces, 0.0, 1.0) > 0.97


def test_steal_between_spans_the_window():
    pieces = [(i * 0.1, pace.REFERENCE_PIECE_S, 0.01 * i) for i in range(11)]  # 0.1 s per second
    assert abs(pace.steal_between(pieces, 0.2, 0.6) - 0.04) < 1e-9
    assert abs(pace.steal_between(pieces, 0.25, 0.55) - 0.04) < 1e-9  # out to the pieces around it
    assert abs(pace.steal_between(pieces, -1.0, 5.0) - 0.10) < 1e-9
    assert pace.read_steal() >= 0.0


def test_pace_sampler_is_stopped_and_reaped():
    run.OUT.mkdir(exist_ok=True)
    with run.PaceSampler() as sampler:
        run.time.sleep(0.3)
        pieces = sampler.stop()
    assert sampler.proc.returncode == 0
    assert len(pieces) >= pace.MIN_PIECES
    assert all(b[0] >= a[0] for a, b in zip(pieces, pieces[1:]))
    with pytest.raises(ZeroDivisionError):
        with run.PaceSampler() as sampler:
            1 / 0
    assert sampler.proc.returncode is not None


def test_untraced_process_must_end_unwrapped():
    expected = [(run.UNWRAPPED, 0)]
    assert run.score(expected, [{"id": expected[0][0], "computed": 0}])[1] == 0
    assert run.score(expected, [{"id": expected[0][0], "computed": 2}])[1] == 1


def _verify_doc(checks):
    return {"pass": True, "suites": [{"suite": "all", "pass": True, "checks": [
        {"id": i, "status": "pass", "expected": v, "computed": v, "elapsed_s": 0.0} for i, v in checks
    ]}]}


def test_wrong_or_missing_verify_checks_count_as_failed():
    expected = run.expected_ops("verify-all")
    pinned = run.pinned_verify_checks()
    assert len(pinned) == 116
    assert run.score(expected, run.verify_ops(_verify_doc(pinned))) == (117, 0, [])

    dropped = run.score(expected, run.verify_ops(_verify_doc(pinned[:-1])))
    assert dropped[1] >= 1

    doc = _verify_doc(pinned)
    check = doc["suites"][0]["checks"][10]
    check["computed"] = check["expected"] = 7  # program and pin disagree
    assert run.score(expected, run.verify_ops(doc))[1] == 1

    doc = _verify_doc(pinned)
    doc["suites"][0]["checks"][20]["status"] = "skipped (budget)"
    assert run.score(expected, run.verify_ops(doc))[1] == 1


def test_wrong_expected_value_counts_in_failed_ratio(monkeypatch):
    dims = dict(worker.DERIVATION_DIMS)
    dims["j3o"] = 53
    monkeypatch.setattr(worker, "DERIVATION_DIMS", tuple(dims.items()))
    run.OUT.mkdir(exist_ok=True)
    res = run.run_workload("derive-cold", SEED, 0.0, False, deadline=run.time.monotonic() + 170)
    assert res["failed"] == 1 and res["attempted"] == 15
    assert any("der-dim-j3o" in m for m in res["messages"])


def test_refuses_to_run_without_the_program():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    done = bench("derive-cold", 0, cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
