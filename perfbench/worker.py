"""One workload process of the benchmark.

    PYTHONPATH=src python3 perfbench/worker.py WORKLOAD SEED TRACE SPANS_PATH

Runs WORKLOAD once and prints one JSON record as its last stdout line:
the monotonic clock at the first and last timed call, the CPU seconds in
between, and every operation's computed value (or the error it raised).
The parent (run.py) compares the values with the expected ones.  With
TRACE=1 the exatlas functions are wrapped for the whole process and
the spans are written to SPANS_PATH at exit.  Either way the record
counts the exatlas bindings still wrapped at exit, which must be 0.
"""

from __future__ import annotations

import io
import json
import random
import sys
import time
from contextlib import contextmanager

#: Rounds of probes per probe-warm process.
PROBE_ROUNDS = 4

#: (name, expected value) of every probe in one probe-warm round.
PROBE_ROUND = (
    ("split-g2", [[6, 8], True, True]),
    ("split-f4", [[36, 16], True, True]),
    ("generic-rank-g2", 2),
    ("generic-rank-f4", 4),
    ("flat-rank-g2-split", 2),
    ("flat-rank-f4-split", 1),
)

#: Der dimension of each derivation target, in the order derive-cold runs them.
DERIVATION_DIMS = (
    ("complex", 0),
    ("quaternions", 3),
    ("octonions", 14),
    ("j3r", 3),
    ("j3c", 8),
    ("j3h", 21),
    ("j3o", 52),
)


class Run:
    """Timestamps, operation results and (optionally) the tracer of one process."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list[dict] = []
        self.record: dict = {}

    @contextmanager
    def phase(self, name: str):
        """Set-up or timed region; the timed one sets t_first/t_last/cpu_s."""
        idx = self.tracer.open(f"bench.{name}") if self.tracer else None
        t0, c0 = time.monotonic(), time.process_time()
        try:
            yield
        finally:
            t1, c1 = time.monotonic(), time.process_time()
            if idx is not None:
                self.tracer.close(idx)
        if name == "timed":
            self.record.update(t_first=t0, t_last=t1, cpu_s=c1 - c0)

    def attempt(self, op_id: str, fn, report=lambda value: value) -> object:
        """Run one operation; record report(result), or the error it raised."""
        try:
            value = fn()
            self.ops.append({"id": op_id, "computed": report(value)})
        except Exception as exc:  # counted as a failed operation; the run goes on
            self.ops.append({"id": op_id, "error": f"{type(exc).__name__}: {exc}"})
            return None
        return value


def derive_cold(run: Run, seed: int) -> None:
    from exatlas import algebras as alg
    from exatlas import jordan as jrd
    from exatlas import lie, linalg

    with run.phase("setup"):
        r = alg.real_algebra()
        c = alg.cayley_dickson_double(r)
        h = alg.cayley_dickson_double(c)
        o = alg.cayley_dickson_double(h)
        targets = {
            "complex": c,
            "quaternions": h,
            "octonions": o,
            "j3r": jrd.build_jordan_algebra(r),
            "j3c": jrd.build_jordan_algebra(c),
            "j3h": jrd.build_jordan_algebra(h),
            "j3o": jrd.build_jordan_algebra(o),
        }
    with run.phase("timed"):
        for name, _ in DERIVATION_DIMS:
            der = run.attempt(
                f"der-dim-{name}",
                lambda: lie.derivation_algebra(targets[name]),
                report=lambda d: d.dim,
            )
            run.attempt(
                f"killing-negative-definite-{name}",
                lambda: linalg.is_negative_definite(lie.killing_form(der)),
            )


def probe_warm(run: Run, seed: int) -> None:
    from exatlas import algebras as alg
    from exatlas import jordan as jrd
    from exatlas import lie

    with run.phase("setup"):
        o = alg.octonions()
        j = jrd.jordan_algebra(o)
        g2 = lie.derivation_algebra(o)
        f4 = lie.derivation_algebra(j)

    def split(algebra, sigma, der):
        return lie.cartan_split(der, lie.induced_involution(algebra, sigma, der))

    def split_summary(pair):
        return [list(pair.dims), pair.pp_spans_k, pair.kp_spans_p]

    with run.phase("timed"):
        for rnd in range(PROBE_ROUNDS):
            rng = random.Random(seed * 1000 + rnd)
            pg = run.attempt(
                "split-g2",
                lambda: split(o, lie.doubled_half_reflection(o), g2),
                report=split_summary,
            )
            pf = run.attempt(
                "split-f4",
                lambda: split(j, lie.diagonal_sign_involution(j, (-1, 1, 1)), f4),
                report=split_summary,
            )
            run.attempt("generic-rank-g2", lambda: lie.generic_rank(g2, trials=5, rng=rng))
            run.attempt("generic-rank-f4", lambda: lie.generic_rank(f4, trials=5, rng=rng))
            run.attempt("flat-rank-g2-split", lambda: lie.flat_rank(pg, rng=rng))
            run.attempt("flat-rank-f4-split", lambda: lie.flat_rank(pf, rng=rng))


def verify_all(run: Run, seed: int) -> None:
    """In-process `exatlas verify all --format json`; used by the traced run."""
    from exatlas import cli

    out = io.StringIO()
    with run.phase("timed"):
        code = cli.main(["verify", "all", "--format", "json", "--seed", str(seed)], out=out)
    run.record.update(exit_code=code, verify=json.loads(out.getvalue()))


WORKLOADS = {"verify-all": verify_all, "derive-cold": derive_cold, "probe-warm": probe_warm}


def main(argv: list[str]) -> int:
    workload, seed, trace, spans_path = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    import exatlas

    import tracer as tracing

    tracer = None
    if trace:
        import exatlas.cli  # noqa: F401  (its bindings are wrapped too)

        tracer = tracing.Tracer(f"{workload}:seed{seed}")
        tracer.install()
    run = Run(tracer)
    try:
        WORKLOADS[workload](run, seed)
    finally:
        if tracer is not None:
            tracer.remove()
            tracer.write(spans_path)
    run.record.update(
        ops=run.ops,
        version=exatlas.__version__,
        wrapped_bindings=tracing.count_wrapped(),
    )
    if tracer is not None:
        run.record["layers"] = tracer.layer_metrics()
    print(json.dumps(run.record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
