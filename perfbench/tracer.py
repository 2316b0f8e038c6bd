"""In-memory span tracer that wraps the public functions of exatlas.

The tracer replaces each traced function at every module binding that
holds it (``lie.nullspace_with_info`` as well as
``linalg.nullspace_with_info``), so calls are seen however the package
reaches them.  Spans are kept in memory and written once, when the
traced process ends.  ``remove`` puts every original binding back.
"""

from __future__ import annotations

import json
import sys
import time

#: Marker attribute set on every wrapper, so a run can prove it is untraced.
MARKER = "_perfbench_wrapper"

#: Rows above which a linear system counts as large.  Fixed here, not read
#: from the solver, so the metric names keep their meaning if the solver's
#: own threshold changes.
LARGE_SYSTEM_ROWS = 1000

#: Public functions timed as spans, by defining module.
SPANNED = {
    "exatlas.algebras": ("cayley_dickson_double",),
    "exatlas.jordan": ("build_jordan_algebra", "trace_form_gram"),
    "exatlas.linalg": ("nullspace_with_info", "is_negative_definite", "is_positive_definite"),
    "exatlas.lie": (
        "leibniz_constraint_rows",
        "derivation_algebra",
        "killing_form",
        "doubled_half_reflection",
        "diagonal_sign_involution",
        "induced_involution",
        "cartan_split",
        "generic_rank",
        "flat_rank",
    ),
    "exatlas.cli": ("run_verify",),
}

#: Per-span work sizes: rows of the system solved or built.  Recorded for
#: calls that return; a call that raises keeps size None.
_SIZE_OF = {
    "linalg.nullspace_with_info": lambda args, kwargs, result: len(
        args[0] if args else kwargs["sparse_rows"]
    ),
    "lie.leibniz_constraint_rows": lambda args, kwargs, result: len(result[0]),
}


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1]


class Tracer:
    """Spans and call counts of one traced workload process."""

    def __init__(self, workload_id: str):
        self.workload_id = workload_id
        # [name, start, end, parent index, size]
        self.spans: list[list] = []
        self.multiply_calls = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name: str, fn):
        size_of = _SIZE_OF.get(name)

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if size_of is not None:
                self.spans[idx][4] = size_of(args, kwargs, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARKER, True)
        return wrapper

    def _count_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            self.multiply_calls += 1
            return fn(*args, **kwargs)

        wrapper.__name__ = fn.__name__
        setattr(wrapper, MARKER, True)
        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function at every exatlas binding of it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for module_name, names in SPANNED.items():
            home = sys.modules[module_name]
            for name in names:
                original = home.__dict__[name]
                wrapper = self._span_wrapper(f"{_short(module_name)}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        cls = sys.modules["exatlas.algebras"].FiniteAlgebra
        self._patch(cls, "multiply_coords", self._count_wrapper(cls.multiply_coords))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        doc = {
            "workload": self.workload_id,
            "fields": ["name", "start", "end", "parent", "size"],
            "spans": self.spans,
            "multiply_calls": self.multiply_calls,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals from the spans (see BENCHMARK.json per_layer)."""
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - child_time[idx])

        large_s = small_s = 0.0
        large_n = small_n = leibniz_rows = 0
        for name, start, end, _, size in self.spans:
            if name == "linalg.nullspace_with_info":
                if (size or 0) > LARGE_SYSTEM_ROWS:
                    large_s += end - start
                    large_n += 1
                else:
                    small_s += end - start
                    small_n += 1
            elif name == "lie.leibniz_constraint_rows":
                leibniz_rows += size or 0

        def tot(*names):
            return sum(total.get(n, 0.0) for n in names)

        def own(*names):
            return sum(self_time.get(n, 0.0) for n in names)

        return {
            "algebras.multiply_calls": self.multiply_calls,
            "jordan.table_build_s": tot("jordan.build_jordan_algebra"),
            "jordan.trace_form_s": tot("jordan.trace_form_gram"),
            "lie.leibniz_rows_s": tot("lie.leibniz_constraint_rows"),
            "lie.leibniz_rows": leibniz_rows,
            "lie.derivation_self_s": own("lie.derivation_algebra"),
            "linalg.nullspace_large_s": large_s,
            "linalg.nullspace_large_calls": large_n,
            "linalg.nullspace_small_s": small_s,
            "linalg.nullspace_small_calls": small_n,
            "lie.induced_involution_s": tot("lie.induced_involution"),
            "lie.cartan_split_self_s": own("lie.cartan_split"),
            "lie.rank_probe_self_s": own("lie.generic_rank", "lie.flat_rank"),
            "lie.killing_s": tot("lie.killing_form"),
            "linalg.definiteness_s": tot("linalg.is_negative_definite", "linalg.is_positive_definite"),
            "trace.uncovered_s": own("bench.timed"),
        }


def _package_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "exatlas" or name.startswith("exatlas."))
    ]


def count_wrapped() -> int:
    """Number of exatlas bindings that currently hold a tracer wrapper."""
    n = 0
    for mod in _package_modules():
        for value in vars(mod).values():
            if getattr(value, MARKER, False):
                n += 1
            elif isinstance(value, type):
                n += sum(1 for v in vars(value).values() if getattr(v, MARKER, False))
    return n
