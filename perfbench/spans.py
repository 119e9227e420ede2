"""Spans and counters recorded at rssfield's layer boundaries.

The benchmark installs wrappers on the names each rssfield module imports
(``rssfield.pipeline.fit_kernel``, ``rssfield.gp.minimize``, ...), so the
library itself stays untouched. Spans are kept in memory and written out
when the traced run ends. A span's self time is its duration minus the
durations of its direct children; per op, the self times of all spans under
the op plus the op's own self time (``op.unattributed_s``) add up to the
op's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import warnings
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

# Box of the kernel-fit search space at the time the benchmark was written
# (gp._VAR_LO/_VAR_HI on squared scales, _SCALE_LO/_SCALE_HI on the decay
# scale). A fitted parameter within 1e-6 relative of an edge is a bound hit.
_VAR_BOX = (1e-4, 1e4)
_SCALE_BOX = (1.0, 2000.0)
_EDGE_RTOL = 1e-6

PINV_WARNING = "singular kriging system"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    op_id: Optional[int]


class NullTracer:
    """Tracing off: spans and counts cost one no-op call each."""

    enabled = False

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, n=1):
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(float)  # (op_id, name) -> value
        self.op_id: Optional[int] = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, perf_counter(), 0.0, parent, self.op_id)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec.end = perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        self.counts[(self.op_id, name)] += n

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def per_op(self, op_ids) -> dict:
        """{op_id: {metric: value}} of self times, call counts and counters."""
        out = {i: defaultdict(float) for i in op_ids}
        for s, self_s in zip(self.spans, self.self_times()):
            if s.op_id not in out:
                continue
            row = out[s.op_id]
            if s.name == "op":
                row["op.unattributed_s"] += self_s
                row["op.wall_s"] += s.end - s.start
            else:
                row[s.name + ".self_s"] += self_s
                row[s.name + ".calls"] += 1
        for (op_id, name), v in self.counts.items():
            if op_id in out:
                out[op_id][name] += v
        return out

    def dump(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op_id": s.op_id}) + "\n")


# ---------------------------------------------------------------------------
# wrappers on module-level names


def _bound_hits(params) -> int:
    sq = (params.sigma_k**2, params.sigma_alpha_k**2, params.sigma_p_k**2)
    values = [(v, _VAR_BOX) for v in sq] + [(params.decay_scale, _SCALE_BOX)]
    hits = 0
    for v, (lo, hi) in values:
        if abs(v - lo) <= _EDGE_RTOL * lo or abs(v - hi) <= _EDGE_RTOL * hi:
            hits += 1
    return hits


def _after_fit_kernel(tr, args, kwargs, out):
    tr.count("gp.fit_kernel.bound_hits", _bound_hits(out))


def _after_gp_minimize(tr, args, kwargs, res):
    tr.count("gp.lbfgs_starts")
    tr.count("gp.nlml_evals", res.nfev)
    tr.count("gp.lbfgs_unconverged", 0 if res.success else 1)


def _after_nm(tr, args, kwargs, res):
    tr.count("localize.nm_evals", res.nfev)


def _after_refine_transmitter(tr, args, kwargs, out):
    tr.count("localize.degenerate", 1 if out[1] else 0)


def _after_refine_all(tr, args, kwargs, out):
    idx = next(i for i in range(len(tr.spans) - 1, -1, -1) if tr.spans[i].name == "empbayes.refine_all")
    passes = kwargs.get("passes", 10)
    used = sum(1 for s in tr.spans[idx + 1:] if s.parent == idx and s.name == "localize.refine_transmitter")
    tr.count("empbayes.refine_all.capped", 1 if passes > 0 and used >= passes else 0)


def _after_kernel_matrix(tr, args, kwargs, out):
    tr.count("gp.kernel_matrix.computed_mb", out.nbytes / 1e6)


def _after_chol(tr, args, kwargs, out):
    tr.count("gp.jitter_nonzero", 1 if out[1] > 0.0 else 0)


def _chol_span(args, kwargs):
    what = kwargs.get("what", args[1] if len(args) > 1 else "covariance")
    return "gp.train_factor" if what == "training covariance" else "gp.pd_check"


def _posterior_span(args, kwargs):
    return "gp.posterior_cov" if kwargs.get("compute_cov", True) else "gp.posterior_mean"


# (module, attribute, span name or callable of (args, kwargs) or None for
# count-only, hook after the call)
WRAPPED = [
    ("rssfield.experiments", "sample_snapshot", "synth.sample_snapshot", None),
    ("rssfield.synth", "cholesky", "synth.cholesky", None),
    ("rssfield.experiments", "run_static", "pipeline.run_static", None),
    ("rssfield.recursive", "run_static", "pipeline.run_static", None),
    ("rssfield.pipeline", "refine_all", "empbayes.refine_all", _after_refine_all),
    ("rssfield.recursive", "refine_all", "empbayes.refine_all", _after_refine_all),
    ("rssfield.empbayes", "refine_transmitter", "localize.refine_transmitter", _after_refine_transmitter),
    ("rssfield.localize", "minimize", None, _after_nm),
    ("rssfield.pipeline", "fit_kernel", "gp.fit_kernel", _after_fit_kernel),
    ("rssfield.recursive", "fit_kernel", "gp.fit_kernel", _after_fit_kernel),
    ("rssfield.gp", "minimize", None, _after_gp_minimize),
    ("rssfield.pipeline", "posterior", _posterior_span, None),
    ("rssfield.gp", "kernel_matrix", "gp.kernel_matrix", _after_kernel_matrix),
    ("rssfield.recursive", "kernel_matrix", "gp.kernel_matrix", _after_kernel_matrix),
    ("rssfield.bounds", "kernel_matrix", "gp.kernel_matrix", _after_kernel_matrix),
    ("rssfield.gp", "chol_with_jitter", _chol_span, _after_chol),
    ("rssfield.recursive", "chol_with_jitter", _chol_span, _after_chol),
    ("rssfield.bounds", "chol_with_jitter", _chol_span, _after_chol),
    ("rssfield.baseline", "fit_variogram", "baseline.fit_variogram", None),
]


def _wrap(tracer, fn, span, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if span is None:
            out = fn(*args, **kwargs)
        else:
            name = span(args, kwargs) if callable(span) else span
            with tracer.span(name):
                out = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, kwargs, out)
        return out

    return wrapper


@contextlib.contextmanager
def installed(tracer):
    """Install the boundary wrappers for the duration of the block."""
    saved = []
    try:
        for mod_name, attr, span, after in WRAPPED:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrap(tracer, fn, span, after))
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


@contextlib.contextmanager
def counting_pinv_warnings(tracer):
    """Count okd_predict's singular-system fallbacks (a RuntimeWarning)."""
    if not tracer.enabled:
        yield
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        yield
    for w in caught:
        if PINV_WARNING in str(w.message):
            tracer.count("baseline.pinv_fallbacks")
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
