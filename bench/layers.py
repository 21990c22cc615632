"""Per-layer tracing of the covariants package, applied from outside.

Each layer is a public function (or method) of the package.  ``install``
replaces it with a timing wrapper at every place it is looked up: the
defining module, every module that imported it by name, and every class
attribute that aliases it (``Polynomial.__rmul__`` is ``__mul__``).  A
binding that the scan misses would report zero calls, which the self-test
catches.

The tracer keeps one frame per open span, so a layer's self time is its
inclusive time minus the time of the wrapped spans it caused.  Inclusive
time counts only the outermost call of a recursive layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

from workloads import WORKLOADS


def _cells(args, kwargs):
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


def _kernel_cells(args, kwargs):
    rows = args[0]
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return len(rows) * ncols


def _nonzeros(args, kwargs):
    # counted before the call: sparse_rank_int consumes its row dicts
    return sum(len(r) for r in args[0])


def _eval_cells(args, kwargs):
    monomials = args[1]
    npoints = args[2] if len(args) > 2 else kwargs["npoints"]
    return len(monomials) * npoints


@dataclass(frozen=True)
class Layer:
    module: str  # defining module of the package
    attr: str  # function, or Class.method, in that module
    prefix: str  # metric names are <prefix>.calls, .s, .self_s[, .<work>]
    workloads: tuple  # where this layer's time should move wall_s
    work: str | None = None  # name of the work count, if any
    before: Callable | None = None  # work count from (args, kwargs)
    after: Callable | None = None  # work count from the result

    def original(self):
        """The function this layer wraps, as the package defines it."""
        owner = importlib.import_module(f"{PACKAGE}.{self.module}")
        *path, name = self.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return vars(owner)[name]


PACKAGE = "covariants"
ALL = tuple(WORKLOADS)
LAYERS = [
    Layer("polynomial", "Polynomial.__mul__", "polynomial.mul", ("invariance",)),
    Layer("polynomial", "Polynomial.substitute", "polynomial.substitute", ("invariance",)),
    Layer("polynomial", "Polynomial.evaluate", "polynomial.evaluate", ("relations",)),
    Layer("linalg", "Matrix.det", "linalg.det", ("polytopes",)),
    Layer("linalg", "rank", "linalg.rank", ("relations",), "cells", _cells),
    Layer("linalg", "kernel_basis", "linalg.kernel_basis", ("relations",), "cells", _kernel_cells),
    Layer("linalg", "rank_mod_p", "linalg.rank_mod_p", ("generation",), "cells", lambda a, k: a[0].size),
    Layer("linalg", "sparse_rank_int", "linalg.sparse_rank_int", ("generation",), "nonzeros", _nonzeros),
    Layer("lp", "feasible_eq_nonneg", "lp.feasible_eq_nonneg", ("polytopes",)),
    Layer("groups", "substitution_images", "groups.substitution_images", ("invariance",)),
    Layer("groups", "lie_act_on_polynomial", "groups.lie_act_on_polynomial", ("invariance",)),
    Layer("generators", "build_generators", "generators.build_generators", ALL),
    Layer("generators", "check_invariance", "generators.check_invariance", ("invariance",)),
    Layer("dimensions", "monomial_eval_matrix", "dimensions.monomial_eval_matrix", ("generation",), "cells", _eval_cells),
    Layer("dimensions", "generated_dimension", "dimensions.generated_dimension", ("generation",)),
    Layer("dimensions", "minimality_check", "dimensions.minimality_check", ("generation",)),
    Layer("dimensions", "invariant_weight_dims", "dimensions.invariant_weight_dims", ("generation",)),
    Layer("degrees", "min_degree_generated", "degrees.min_degree_generated", ("polytopes",)),
    Layer("polytopes", "chamber_inclusion_check", "polytopes.chamber_inclusion_check", ("polytopes",)),
    Layer("flags", "flag_map", "flags.flag_map", ("polytopes",)),
    Layer("syzygies", "relation_space", "syzygies.relation_space", ("relations",), "columns", after=lambda r: r.ambient_dim),
    Layer("syzygies", "mixed_minor_relation", "syzygies.mixed_minor_relation", ("invariance",)),
]


def metric_names() -> list[str]:
    """Names of the per-layer metrics ``Tracer.metrics`` reports, in order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer.prefix}.{stat}" for stat in ("calls", "s", "self_s")]
        if layer.work:
            names.append(f"{layer.prefix}.{layer.work}")
    return names


class _Stat:
    __slots__ = ("calls", "total", "self_total", "work", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.work = 0
        self.depth = 0


class Tracer:
    """Span statistics per layer, kept in memory for one batch."""

    def __init__(self):
        self.stats = {layer.prefix: _Stat() for layer in LAYERS}
        # child time of each open span; the base frame collects top-level spans
        self._frames = [0.0]

    def wrap(self, fn, prefix, before=None, after=None):
        st = self.stats[prefix]
        frames = self._frames
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st.calls += 1
            if before is not None:
                st.work += before(args, kwargs)
            st.depth += 1
            frames.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st.self_total += dt - frames.pop()
                frames[-1] += dt
                st.depth -= 1
                if not st.depth:
                    st.total += dt
            if after is not None:
                st.work += after(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer at every binding inside the package."""
        for layer in LAYERS:
            original = layer.original()
            rebind(original, self.wrap(original, layer.prefix, layer.before, layer.after))

    def metrics(self) -> dict:
        out = {}
        for layer in LAYERS:
            st = self.stats[layer.prefix]
            out[f"{layer.prefix}.calls"] = (st.calls, "count")
            out[f"{layer.prefix}.s"] = (st.total, "s")
            out[f"{layer.prefix}.self_s"] = (st.self_total, "s")
            if layer.work:
                out[f"{layer.prefix}.{layer.work}"] = (st.work, "count")
        return out


def rebind(original, replacement) -> None:
    """Point every module global and class attribute of the package that is
    ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
            elif isinstance(value, type) and value.__module__ == name:
                for ckey, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        setattr(value, ckey, replacement)
