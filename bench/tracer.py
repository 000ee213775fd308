"""A tracer that wraps confound_lens's public functions from outside.

Nothing in the package is edited.  Each target is replaced, in every
`confound_lens` module that holds the same function object, by a wrapper that
records a span: [name, start, end, parent span, op id, attributes].  Names
bound at import time (`from .ols import fit_ols` in cli, simulate and
ratio_ci) are caught that way; names looked up at call time (`t_cdf` inside
`t_quantile`, `np.linalg.qr` inside `fit_ols`) are caught by replacing the
module attribute.  A target that no longer exists is skipped and its metrics
are reported as absent.

Spans stay in memory until the run ends.  A span's self time is its duration
minus the durations of its child spans (the traced calls are single-threaded,
so children never overlap).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

NAME, START, END, PARENT, OP, ATTRS = range(6)

QUANTILES = ("distributions.t_quantile", "distributions.chisq_quantile")
CDFS = ("distributions.t_cdf", "distributions.chisq_cdf")
RATIO_SPANS = ("ratio_ci.conservative_ratio_ci", "ratio_ci.ratio_point_estimate")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _dataset_rows(result) -> int:
    if isinstance(result, list):  # ingest_csv_stratified: [(label, Dataset)]
        return sum(data.n for _, data in result)
    return result.n


def _source_bytes(args, kwargs) -> int:
    source = _arg(args, kwargs, 0, "source")
    return Path(source).stat().st_size if isinstance(source, (str, Path)) else 0


def _size(args, kwargs, name: str) -> int:
    return int(np.asarray(_arg(args, kwargs, 0, name)).size)


def _quantile_key(args, kwargs, result):
    return (float(_arg(args, kwargs, 0, "p")), int(_arg(args, kwargs, 1, "df")))


# (module, attribute, span name, attributes from (args, kwargs, result))
TARGETS = (
    ("confound_lens.cli", "main", "cli.main", None),
    ("confound_lens.simulate", "generate", "simulate.generate", None),
    ("confound_lens.simulate", "replicate_study", "simulate.replicate_study", None),
    ("confound_lens.simulate", "derive_replicate_seed", "simulate.derive_replicate_seed", None),
    ("confound_lens.distributions", "t_cdf", "distributions.t_cdf", None),
    ("confound_lens.distributions", "chisq_cdf", "distributions.chisq_cdf", None),
    ("confound_lens.distributions", "t_quantile", "distributions.t_quantile",
     _quantile_key),
    ("confound_lens.distributions", "chisq_quantile", "distributions.chisq_quantile",
     _quantile_key),
    ("confound_lens.ols", "fit_ols", "ols.fit_ols", None),
    ("confound_lens.ols", "vif", "ols.vif", None),
    ("confound_lens.logit", "fit_logit", "logit.fit_logit",
     lambda args, kwargs, result: result.iterations),
    ("confound_lens.logit", "c_statistic", "logit.c_statistic", None),
    ("confound_lens.ratio_ci", "conservative_ratio_ci", "ratio_ci.conservative_ratio_ci", None),
    ("confound_lens.ratio_ci", "ratio_point_estimate", "ratio_ci.ratio_point_estimate", None),
    ("confound_lens.sensitivity", "robustness_value_alpha",
     "sensitivity.robustness_value_alpha", None),
    ("confound_lens.ingest", "ingest_csv", "ingest.read",
     lambda args, kwargs, result: (_dataset_rows(result), _source_bytes(args, kwargs))),
    ("confound_lens.ingest", "ingest_csv_stratified", "ingest.read",
     lambda args, kwargs, result: (_dataset_rows(result), _source_bytes(args, kwargs))),
    ("confound_lens.ingest", "dataset_to_csv", "ingest.write",
     lambda args, kwargs, result: len(getattr(_arg(args, kwargs, 1, "stream"), "getvalue",
                                              str)())),
)

# Spans recorded only under a given parent, named after it: the bulk sampler
# under generate, and the linear-algebra kernels under the fit that calls them.
CONDITIONAL_TARGETS = (
    ("confound_lens.distributions", "normal_quantile_vec",
     {"simulate.generate": "distributions.sampler"},
     lambda args, kwargs, result: _size(args, kwargs, "p")),
    ("numpy.linalg", "qr",
     {"logit.fit_logit": "logit.qr", "ols.fit_ols": "ols.qr", "ols.vif": "ols.qr"},
     lambda args, kwargs, result: 8 * _size(args, kwargs, "a")),
    ("numpy.linalg", "svd",
     {"logit.fit_logit": "logit.svd", "ols.fit_ols": "ols.svd", "ols.vif": "ols.svd"},
     lambda args, kwargs, result: 8 * _size(args, kwargs, "a")),
)


class Tracer:
    """Span recorder; `install` wraps the targets, `restore` undoes it."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name, fn, attrs, args, kwargs):
        spans, stack = self.spans, self.stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
        spans.append(rec)
        stack.append(len(spans) - 1)
        rec[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            stack.pop()
        if attrs is not None:
            rec[ATTRS] = attrs(args, kwargs, result)
        return result

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(name, fn, attrs, args, kwargs)
        return wrapper

    def _wrap_conditional(self, names, fn, attrs):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for idx in reversed(stack):
                name = names.get(spans[idx][NAME])
                if name is not None:
                    return self._span(name, fn, attrs, args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def _replace_everywhere(self, module_name, attr, make_wrapper, label):
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            self.missing.append(label)
            return
        wrapper = make_wrapper(original)
        holders = [module] + [m for name, m in list(sys.modules.items())
                              if m is not None and m is not module
                              and (name == "confound_lens" or name.startswith("confound_lens."))]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patched.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def install(self) -> None:
        for module_name, attr, name, attrs in TARGETS:
            self._replace_everywhere(module_name, attr,
                                     lambda fn, n=name, a=attrs: self._wrap(n, fn, a),
                                     f"{module_name}.{attr}")
        for module_name, attr, names, attrs in CONDITIONAL_TARGETS:
            self._replace_everywhere(module_name, attr,
                                     lambda fn, n=names, a=attrs: self._wrap_conditional(n, fn, a),
                                     f"{module_name}.{attr}")

    def restore(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

# metric name -> (unit, better, span names it needs)
PER_LAYER = {
    "simulate.generate.calls": ("calls/op", "lower", {"simulate.generate"}),
    "simulate.generate.self_ms": ("ms/op", "lower", {"simulate.generate"}),
    "simulate.replicate_study.self_ms": ("ms/op", "lower", {"simulate.replicate_study"}),
    "simulate.derive_replicate_seed.self_ms": ("ms/op", "lower",
                                               {"simulate.derive_replicate_seed"}),
    "distributions.sampler.self_ms": ("ms/op", "lower", {"distributions.sampler"}),
    "distributions.sampler.values": ("values/op", "lower", {"distributions.sampler"}),
    "distributions.sampler.bytes": ("B/op", "lower", {"distributions.sampler"}),
    "distributions.t_cdf.calls": ("calls/op", "lower", {"distributions.t_cdf"}),
    "distributions.t_cdf.self_ms": ("ms/op", "lower", {"distributions.t_cdf"}),
    "distributions.t_quantile.calls": ("calls/op", "lower", {"distributions.t_quantile"}),
    "distributions.chisq_quantile.calls": ("calls/op", "lower",
                                           {"distributions.chisq_quantile"}),
    "distributions.chisq_cdf.self_ms": ("ms/op", "lower", {"distributions.chisq_cdf"}),
    "distributions.cdf_evals_per_quantile": ("evals/quantile", "lower", {*QUANTILES, *CDFS}),
    "distributions.quantile_distinct_frac": ("ratio", "higher", {*QUANTILES}),
    "ols.fit_ols.calls": ("calls/op", "lower", {"ols.fit_ols"}),
    "ols.fit_ols.self_ms": ("ms/op", "lower", {"ols.fit_ols"}),
    "ols.vif.calls": ("calls/op", "lower", {"ols.vif"}),
    "ols.vif.self_ms": ("ms/op", "lower", {"ols.vif"}),
    "ols.qr.calls": ("calls/op", "lower", {"ols.qr"}),
    "ols.qr.self_ms": ("ms/op", "lower", {"ols.qr"}),
    "ols.qr.bytes": ("B/op", "lower", {"ols.qr"}),
    "ols.svd.calls": ("calls/op", "lower", {"ols.svd"}),
    "ols.svd.self_ms": ("ms/op", "lower", {"ols.svd"}),
    "ols.svd.bytes": ("B/op", "lower", {"ols.svd"}),
    "logit.fit_logit.calls": ("calls/op", "lower", {"logit.fit_logit"}),
    "logit.fit_logit.self_ms": ("ms/op", "lower", {"logit.fit_logit"}),
    "logit.irls_iterations": ("iterations/fit", "lower", {"logit.fit_logit"}),
    "logit.c_statistic.self_ms": ("ms/op", "lower", {"logit.c_statistic"}),
    "ratio_ci.conservative_ratio_ci.calls": ("calls/op", "lower",
                                             {"ratio_ci.conservative_ratio_ci"}),
    "ratio_ci.conservative_ratio_ci.incl_ms": ("ms/op", "lower",
                                               {"ratio_ci.conservative_ratio_ci"}),
    "ratio_ci.exposure_fits_per_interval": ("fits/interval", "lower",
                                            {"ratio_ci.conservative_ratio_ci",
                                                   "ols.fit_ols"}),
    "sensitivity.robustness_value_alpha.calls": ("calls/op", "lower",
                                                 {"sensitivity.robustness_value_alpha"}),
    "sensitivity.robustness_value_alpha.incl_ms": ("ms/op", "lower",
                                                   {"sensitivity.robustness_value_alpha"}),
    "ingest.read.self_ms": ("ms/op", "lower", {"ingest.read"}),
    "ingest.read.rows": ("rows/op", "lower", {"ingest.read"}),
    "ingest.read.bytes": ("B/op", "lower", {"ingest.read"}),
    "ingest.write.self_ms": ("ms/op", "lower", {"ingest.write"}),
    "ingest.write.bytes": ("B/op", "lower", {"ingest.write"}),
    "cli.main.self_ms": ("ms/op", "lower", {"cli.main"}),
    "cli.output.bytes": ("B/op", "lower", set()),
    "trace.overhead_frac": ("ratio", "lower", set()),
}

# span names whose wrapped target may be missing, by target label
SPAN_OF_TARGET = {f"{m}.{a}": n for m, a, n, _ in TARGETS}
SPAN_OF_TARGET.update({f"{m}.{a}": n for m, a, names, _ in CONDITIONAL_TARGETS
                       for n in names.values()})


def summarise(spans: list[list], ops: int, output_bytes: float, overhead_frac: float,
              missing: list[str]) -> tuple[dict, dict]:
    """Per-op layer metrics, and each module's share of self time."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    attr_sum = defaultdict(float)
    quantile_pairs: dict[int, set] = defaultdict(set)
    cdf_in_quantile = 0
    fits_in_ratio = 0
    for i, rec in enumerate(spans):
        name = rec[NAME]
        dur = rec[END] - rec[START]
        calls[name] += 1
        incl_s[name] += dur
        self_s[name] += dur - child[i]
        attrs = rec[ATTRS]
        parent = spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None
        if name in QUANTILES:
            quantile_pairs[rec[OP]].add((name, *attrs))
        elif name in CDFS and parent in QUANTILES:
            cdf_in_quantile += 1
        elif name == "ols.fit_ols" and parent in RATIO_SPANS:
            fits_in_ratio += 1
        if name == "ingest.read":
            attr_sum["ingest.read.rows"] += attrs[0]
            attr_sum["ingest.read.bytes"] += attrs[1]
        elif isinstance(attrs, (int, float)):
            attr_sum[name] += attrs

    per_op = lambda x: x / ops  # noqa: E731
    quantiles = sum(calls[q] for q in QUANTILES)
    intervals = calls["ratio_ci.conservative_ratio_ci"]
    values = {
        "distributions.sampler.values": per_op(attr_sum["distributions.sampler"]),
        "distributions.sampler.bytes": per_op(16 * attr_sum["distributions.sampler"]),
        "distributions.cdf_evals_per_quantile": cdf_in_quantile / quantiles if quantiles else 0.0,
        "distributions.quantile_distinct_frac":
            sum(map(len, quantile_pairs.values())) / quantiles if quantiles else 0.0,
        "ols.qr.bytes": per_op(attr_sum["ols.qr"]),
        "ols.svd.bytes": per_op(attr_sum["ols.svd"]),
        "logit.irls_iterations": (attr_sum["logit.fit_logit"] / calls["logit.fit_logit"]
                                  if calls["logit.fit_logit"] else 0.0),
        "ratio_ci.exposure_fits_per_interval": fits_in_ratio / intervals if intervals else 0.0,
        "ingest.read.rows": per_op(attr_sum["ingest.read.rows"]),
        "ingest.read.bytes": per_op(attr_sum["ingest.read.bytes"]),
        "ingest.write.bytes": per_op(attr_sum["ingest.write"]),
        "cli.output.bytes": output_bytes,
        "trace.overhead_frac": overhead_frac,
    }
    for metric in PER_LAYER:
        if metric in values:
            continue
        span, _, kind = metric.rpartition(".")
        source = {"calls": calls, "self_ms": self_s, "incl_ms": incl_s}[kind]
        scale = 1.0 if kind == "calls" else 1000.0
        values[metric] = per_op(scale * source[span])

    absent_spans = {SPAN_OF_TARGET[label] for label in missing}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _, needs) in PER_LAYER.items() if not needs & absent_spans}
    module_self = defaultdict(float)
    for name, s in self_s.items():
        module_self[name.split(".")[0]] += s
    return metrics, {module: per_op(1000.0 * s) for module, s in module_self.items()}
