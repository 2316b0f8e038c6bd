"""Benchmark of exatlas: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is verify-all, derive-cold, probe-warm, or all (each in turn).
The package is always taken from the checkout's src directory.  Each
repetition of a workload is a fresh interpreter, so caches start cold as
on every real CLI call; repetitions go on while another fits in S
seconds, and every metric is the median over them.  The load is a closed
loop: one caller, one workload process at a time.  Every process of the
run shares one core with the core-speed sampler (pace.py), and times are
corrected to a quiet core of the host (see perfbench/README.md).

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced processes and reports the per-layer
metrics of the traced ones (see BENCHMARK.json).  Every computed value
is checked; mismatches, exceptions and budget skips count as failed.

The last stdout line is the result object; the line before it is the
run header.  A full record goes to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pace
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("verify-all", "derive-cold", "probe-warm")

#: A run stops starting processes after this many seconds, so it exits
#: well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0

#: verify-all's set-up is timed on this many `exatlas --help` calls per run,
#: each between two calls of the bare interpreter that import numpy.
SETUP_PROBES = 10

#: Seconds the bare interpreter takes to start and import numpy on a quiet
#: core of the 2-core Xeon VM the baseline was measured on.
REFERENCE_START_S = 0.13

#: Operation id of the check that no tracer wrapper is left in the package.
UNWRAPPED = "bench.wrapped-bindings-at-exit"

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

COMPOSITION_SWEEP = ("composition-law-", "alternativity-", "associator-", "inverse-law-")
JORDAN_SWEEP = tuple(f"jordan-identity-{k}" for k in "rcho")
SUITES = ("algebras", "derivations", "magic-square", "atlas", "chains", "exponents")

PER_LAYER = {
    **{f"cli.suite.{s}_s": "s" for s in SUITES},
    "algebras.composition_sweep_s": "s",
    "algebras.multiply_calls": "count",
    "jordan.identity_sweep_s": "s",
    "jordan.table_build_s": "s",
    "jordan.trace_form_s": "s",
    "lie.leibniz_rows_s": "s",
    "lie.leibniz_rows": "count",
    "lie.derivation_self_s": "s",
    "linalg.nullspace_large_s": "s",
    "linalg.nullspace_large_calls": "count",
    "linalg.nullspace_small_s": "s",
    "linalg.nullspace_small_calls": "count",
    "lie.induced_involution_s": "s",
    "lie.cartan_split_self_s": "s",
    "lie.rank_probe_self_s": "s",
    "lie.killing_s": "s",
    "linalg.definiteness_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, wrong package)."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    t_spawn: float
    wall_s: float  # spawn to exit
    cpu_s: float  # user + system, from the child's rusage
    peak_rss_mb: float


def spawn(argv: list[str], timeout: float) -> Child:
    """Run one process to completion and read its own resource usage."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("ATLAS_SEED", None)
    with tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        status = None
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
        finally:
            killer.cancel()
            proc.stdout.close()
            if status is None:
                proc.kill()
                proc.wait()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Child(
        code=proc.returncode,
        stdout=out.decode(errors="replace"),
        stderr=stderr,
        t_spawn=t0,
        wall_s=t1 - t0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,  # Linux reports KiB
    )


def _cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "exatlas.cli", *args]


def _worker_argv(workload: str, seed: int, trace: bool, spans: Path) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(int(trace)), str(spans)]


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def pinned_verify_checks() -> list[tuple[str, object]]:
    with open(HERE / "verify_all_checks.json") as fh:
        return [tuple(c) for c in json.load(fh)["checks"]]


def expected_ops(workload: str) -> list[tuple[str, object]]:
    """Ordered (operation id, expected value) of one workload process."""
    if workload == "verify-all":
        return pinned_verify_checks() + [("pass", True)]
    if workload == "derive-cold":
        out = []
        for name, dim in worker.DERIVATION_DIMS:
            out += [(f"der-dim-{name}", dim), (f"killing-negative-definite-{name}", True)]
        return out
    return list(worker.PROBE_ROUND) * worker.PROBE_ROUNDS


def verify_ops(doc: dict) -> list[dict]:
    """Operations of a `verify --format json` document: its checks in order, then its verdict."""
    ops = []
    for suite in doc.get("suites", []):
        for c in suite["checks"]:
            if c["status"] != "pass":
                ops.append({"id": c["id"], "error": c["status"]})
            elif c["computed"] != c["expected"]:
                ops.append({"id": c["id"], "error": f"computed {c['computed']!r} != {c['expected']!r}"})
            else:
                ops.append({"id": c["id"], "computed": c["computed"]})
    ops.append({"id": "pass", "computed": doc.get("pass")})
    return ops


def score(expected: list[tuple[str, object]], ops: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): position by position against the expected list.

    A missing, renamed, extra, erroring or wrong operation is a failure,
    so a check cannot be dropped silently.
    """
    attempted = max(len(expected), len(ops))
    messages = []
    for i in range(attempted):
        want = expected[i] if i < len(expected) else None
        got = ops[i] if i < len(ops) else None
        if want is None:
            messages.append(f"unexpected operation {got['id']}")
        elif got is None:
            messages.append(f"{want[0]}: missing")
        elif got["id"] != want[0]:
            messages.append(f"{want[0]}: found {got['id']} in its place")
        elif "error" in got:
            messages.append(f"{want[0]}: {got['error']}")
        elif got["computed"] != want[1]:
            messages.append(f"{want[0]}: computed {got['computed']!r}, expected {want[1]!r}")
    return attempted, len(messages), messages


# ---------------------------------------------------------------------------
# one measured process
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    """One workload process. Times are as measured until `correct_pace` scales them."""
    wall_s: float | None = None
    cpu_s: float | None = None
    peak_rss_mb: float | None = None
    setup_s: float | None = None
    wall_window: tuple | None = None  # monotonic (start, end) of wall_s and cpu_s
    setup_window: tuple | None = None
    pace: dict | None = None  # factor applied to each time, by metric
    stolen: dict | None = None  # seconds taken off each wall time, by metric
    layers: dict | None = None
    attempted: int = 0
    failed: int = 0
    messages: tuple = ()


def measure(workload: str, seed: int, trace: bool, spans: Path, timeout: float) -> Sample:
    """One workload process: its timings, and its outputs checked."""
    expected = expected_ops(workload)
    if workload == "verify-all" and not trace:
        child = spawn(_cli_argv("verify", "all", "--format", "json", "--seed", str(seed)), timeout)
        record = {"verify": _parse_json(child.stdout)}
    else:
        child = spawn(_worker_argv(workload, seed, trace, spans), timeout)
        record = _parse_json(child.stdout) or {}
        expected.append((UNWRAPPED, 0))
    if workload == "verify-all":
        ops = verify_ops(record["verify"]) if record.get("verify") else []
    else:
        ops = list(record.get("ops", []))
    if "wrapped_bindings" in record:
        ops.append({"id": UNWRAPPED, "computed": record["wrapped_bindings"]})

    attempted, failed, messages = score(expected, ops)
    if child.code != 0 and not messages:
        failed, messages = attempted, [f"exit code {child.code}"]
    if messages and child.stderr.strip():
        messages.append("stderr: " + child.stderr.strip().splitlines()[-1])
    s = Sample(attempted=attempted, failed=failed, messages=tuple(messages), peak_rss_mb=child.peak_rss_mb)
    if workload == "verify-all":
        s.wall_s, s.cpu_s = child.wall_s, child.cpu_s
        s.wall_window = (child.t_spawn, child.t_spawn + child.wall_s)
    elif "t_first" in record:
        s.setup_s = record["t_first"] - child.t_spawn
        s.wall_s = record["t_last"] - record["t_first"]
        s.cpu_s = record["cpu_s"]
        s.setup_window = (child.t_spawn, record["t_first"])
        s.wall_window = (record["t_first"], record["t_last"])
    if trace and "layers" in record:
        s.layers = {**record["layers"], **_verify_layers(record.get("verify"))}
    return s


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def _verify_layers(doc: dict | None) -> dict[str, float]:
    """Suite and sweep times from the elapsed_s values of a verify document."""
    checks = [c for suite in (doc or {}).get("suites", []) for c in suite["checks"]]
    out = {f"cli.suite.{s}_s": 0.0 for s in SUITES}
    for suite in (doc or {}).get("suites", []):
        out[f"cli.suite.{suite['suite']}_s"] = sum(c["elapsed_s"] for c in suite["checks"])
    out["algebras.composition_sweep_s"] = sum(
        (c["elapsed_s"] for c in checks if c["id"].startswith(COMPOSITION_SWEEP)), 0.0
    )
    out["jordan.identity_sweep_s"] = sum(
        (c["elapsed_s"] for c in checks if c["id"] in JORDAN_SWEEP), 0.0
    )
    return out


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _room_for_another(start: float, seconds: float, durations: list[float]) -> bool:
    elapsed = time.monotonic() - start
    return elapsed + statistics.median(durations) <= seconds


def _median(values, unit: str = "s") -> float | None:
    """Median of the values measured (a count stays a whole number); None when
    every process failed first."""
    present = [v for v in values if v is not None]
    if not present:
        return None
    return statistics.median_low(present) if unit == "count" else statistics.median(present)


class PaceSampler:
    """The pace.py process of one run, on the run's core from the first
    workload process to the last; stopped and reaped on every way out."""

    def __enter__(self) -> "PaceSampler":
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "pace.py")], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        if self.proc.stdout.readline() != b"ready\n":
            self.__exit__()
            raise BenchError("the core-speed sampler did not start")
        return self

    def stop(self) -> list[tuple[float, float, float]]:
        """Stop sampling; (end time, CPU seconds, steal seconds) of every piece timed."""
        self.proc.terminate()
        out = self.proc.stdout.read()
        self.proc.wait()
        return [tuple(s) for s in _parse_json(out) or []]

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.stdout.close()
        self.proc.wait()


def correct_pace(sample: Sample, pieces: list[tuple[float, float, float]]) -> None:
    """Scale the sample's times to a quiet core (see pace.py); the wall
    intervals first lose the time the hypervisor stole from the core.
    Per-layer times take the factor of the timed region they lie in."""
    sample.pace, sample.stolen = {}, {}
    for metric, window, wall in (("wall_s", sample.wall_window, True),
                                 ("cpu_s", sample.wall_window, False),
                                 ("setup_s", sample.setup_window, True)):
        value = getattr(sample, metric)
        if value is None or window is None:
            continue
        factor = pace.pace_factor(pieces, *window)
        if factor is None:
            raise BenchError("the core-speed sampler timed too few pieces")
        if wall:
            sample.stolen[metric] = min(pace.steal_between(pieces, *window), value)
            value -= sample.stolen[metric]
        setattr(sample, metric, value * factor)
        sample.pace[metric] = factor
    if sample.layers and "wall_s" in sample.pace:
        sample.layers = {k: v * sample.pace["wall_s"] if PER_LAYER.get(k) == "s" else v
                         for k, v in sample.layers.items()}


def cli_setup_probes(deadline: float) -> list[float]:
    """verify-all's set-up times: `exatlas --help` against the bare interpreter.

    Start-up (exec, loading shared objects, reading bytecode) slows less
    than Python code when the core is in its slow state, so the pace
    factor would over-correct it. Instead each `--help` call is timed
    between two calls of `python -c "import numpy"`, and its time is
    taken relative to theirs, in units of REFERENCE_START_S.
    """
    def bare() -> float:
        child = spawn([sys.executable, "-c", "import numpy"], deadline - time.monotonic())
        if child.code != 0:
            raise BenchError(f"`python -c 'import numpy'` exited with {child.code}: {child.stderr.strip()}")
        return child.wall_s

    before, out = bare(), []
    for _ in range(SETUP_PROBES):
        probe = spawn(_cli_argv("--help"), deadline - time.monotonic())
        if probe.code != 0:
            raise BenchError(f"`exatlas --help` exited with {probe.code}: {probe.stderr.strip()}")
        after = bare()
        out.append(probe.wall_s / ((before + after) / 2) * REFERENCE_START_S)
        before = after
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Repeat the workload for `seconds`; return medians, counts and samples."""
    start = time.monotonic()
    untraced: list[Sample] = []
    traced: list[Sample] = []
    setup_probes: list[float] = []
    durations: list[float] = []
    with PaceSampler() as sampler:
        if workload == "verify-all" and not trace:
            setup_probes = cli_setup_probes(deadline)
        while True:
            t0 = time.monotonic()
            untraced.append(measure(workload, seed, False, OUT / "spans-untraced.json", deadline - t0))
            if trace:
                spans = OUT / f"spans-{workload}-seed{seed}-{len(traced)}.json"
                traced.append(measure(workload, seed, True, spans, deadline - time.monotonic()))
            durations.append(time.monotonic() - t0)
            if time.monotonic() >= deadline or not _room_for_another(start, seconds, durations):
                break
        pieces = sampler.stop()
    for s in untraced + traced:
        correct_pace(s, pieces)

    samples = untraced + traced
    result = {
        "attempted": sum(s.attempted for s in samples),
        "failed": sum(s.failed for s in samples),
        "messages": [m for s in samples for m in s.messages][:20],
        "processes": len(samples),
        "pace_pieces": len(pieces),
        "setup_probes": setup_probes,
        "samples": [vars(s) for s in samples],
    }
    if trace:
        layers = [s.layers for s in traced if s.layers]
        metrics = {name: _median((l.get(name) for l in layers), unit) for name, unit in PER_LAYER.items()}
        traced_wall = _median(s.wall_s for s in traced)
        untraced_wall = _median(s.wall_s for s in untraced)
        if traced_wall is not None and untraced_wall is not None:
            metrics["trace.overhead_s"] = traced_wall - untraced_wall
        result["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        setup = setup_probes or [s.setup_s for s in untraced]
        metrics = {
            "setup_s": _median(setup),
            "wall_s": _median(s.wall_s for s in untraced),
            "cpu_s": _median(s.cpu_s for s in untraced),
            "peak_rss_mb": _median(s.peak_rss_mb for s in untraced),
        }
        result["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    return result


# ---------------------------------------------------------------------------
# header and entry point
# ---------------------------------------------------------------------------

def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "exatlas").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_header(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Everything needed to reproduce and compare a result."""
    probe = spawn(
        [sys.executable, "-c",
         "import json, exatlas, numpy; print(json.dumps([exatlas.__file__, exatlas.__version__, numpy.__version__]))"],
        60,
    )
    found = _parse_json(probe.stdout) if probe.code == 0 else None
    if not found:
        raise BenchError(f"cannot import exatlas from {SRC}: {probe.stderr.strip()}")
    if not Path(found[0]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"exatlas was imported from {found[0]}, not from {SRC}")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "exatlas_version": found[1],
        "python": platform.python_version(),
        "numpy": found[2],
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _print_table(workload: str, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"{workload}: {result['processes']} process(es), {attempted} operations, "
        f"{failed} failed (failed_ratio {failed / max(attempted, 1):.4g})",
        file=sys.stderr,
    )
    for name, m in result["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6f}"
        print(f"  {name:32s} {value:>14s} {m['unit']}", file=sys.stderr)
    for msg in result["messages"]:
        print(f"  FAILED {msg}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    if not (SRC / "exatlas" / "__init__.py").is_file():
        print(f"error: no exatlas source tree at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    # Every process of the run, the core-speed sampler too, shares one core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        header = run_header(args.workload, args.seed, args.seconds, trace)
        compiled = spawn([sys.executable, "-m", "compileall", "-q", str(SRC / "exatlas"), str(HERE)], 120)
        if compiled.code != 0:
            raise BenchError(f"compileall failed: {compiled.stderr.strip()}")
        results = {}
        for w in workloads:
            if args.workload == "all":
                deadline = time.monotonic() + RUN_DEADLINE_S
            results[w] = run_workload(w, args.seed, args.seconds, trace, deadline)
            _print_table(w, results[w])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{int(trace)}"
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump({"header": header, "results": results}, fh, indent=1)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({"header": header}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
