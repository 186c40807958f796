"""Outside-in tracer: spans around calls into qrtour's public functions.

``Tracer.install`` wraps every public function of the layer modules and
rebinds the wrapper under every name that refers to the original in any
qrtour module, so calls between modules (``qrtour.discrepancy.lambda1``,
``qrtour.cli.decode``, ...) are seen as well as calls from outside.  Each
span records its name, start, end, parent span and job id, plus a few
result attributes for the layer counters.  Spans stay in memory until the
worker writes them out at the end of its pass.

``layer_metrics`` turns the spans of a traced run into the per-layer
metrics; a layer's self time is the time its spans cover minus the time
covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("core", "exactcount", "spectral", "discrepancy", "cli")

# Per-pair helpers called O(n^2) times from inside other functions: a span
# on each call would cost more than the work it measures.
UNTRACED = {"core.edge_sign", "core.pair_index", "core.d_plus", "core.d_minus"}

# The layer each workload is built to load, which its traced run must see.
EXPECTED_LAYERS = {
    "count-exact": ("exactcount", "cli"),
    "spectral-cert": ("spectral", "cli"),
    "disc-search": ("discrepancy", "spectral", "cli"),
    "ingest-large": ("core", "discrepancy"),
}

GENERATORS = {
    "core.random_tournament",
    "core.transitive_tournament",
    "core.rotational_tournament",
    "core.paley_tournament",
    "core.generate",
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _summary_attrs(args, kwargs, r):
    return {"iterations": r.iterations, "converged": r.converged, "lambda1": r.lambda1_abs}


ANNOTATE = {
    "core.decode": lambda a, kw, r: {"bytes": len(_arg(a, kw, 0, "data"))},
    "cli.render_json": lambda a, kw, r: {"bytes": len(r)},
    "exactcount.even_cycles_trace": lambda a, kw, r: {
        "k": _arg(a, kw, 1, "k"),
        "bits": abs(r.trace).bit_length(),
    },
    "spectral.lambda1": _summary_attrs,
    "spectral.full_spectrum": _summary_attrs,
    "discrepancy.disc_exhaustive": lambda a, kw, r: {"n": _arg(a, kw, 0, "t").n},
}


class Tracer:
    """Records nested spans of calls into the qrtour layer modules."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job, attrs]
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        annotate = ANNOTATE.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                try:
                    span[5] = annotate(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"qrtour.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNTRACED
                    or inspect.isclass(obj)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for modname, module in list(sys.modules.items()):
            if modname != "qrtour" and not modname.startswith("qrtour."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()


# --- per-layer metrics ------------------------------------------------------


def missing_layers(workload: str, passes: list[dict]) -> list[str]:
    """Expected layers of ``workload`` for which no traced pass has a span."""
    seen = {span[0].split(".")[0] for p in passes for span in p["spans"]}
    return [layer for layer in EXPECTED_LAYERS[workload] if layer not in seen]


def _self_times(spans: list[list]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _subtree_self(spans, own, children, root, layer):
    """Self time of ``layer`` spans in the subtree rooted at span ``root``."""
    total, todo = 0.0, [root]
    while todo:
        i = todo.pop()
        if spans[i][0].startswith(layer + "."):
            total += own[i]
        todo.extend(children.get(i, ()))
    return total


def layer_metrics(passes: list[dict], lambda_oracle: dict) -> dict[str, float]:
    """Per-layer metrics of traced passes: the median over passes of each.

    Each pass holds its ``spans``, ``sign_array`` cache counters, job
    ``times`` at reference speed and each job's ``scale`` to that speed (see
    ``speed.py``), by which its span times are scaled too.
    ``lambda_oracle`` maps a job id to the oracle's |lambda1| for jobs whose
    input has one.
    """
    per_pass = [_pass_metrics(p, lambda_oracle) for p in passes]
    return {k: float(np.median([m[k] for m in per_pass])) for k in per_pass[0]}


_OWN = {
    "core.encode": "core.encode_s", "core.decode": "core.decode_s",
    "core.relabel": "core.relabel_s", "core.reverse": "core.reverse_s",
    "core.sign_array": "core.sign_array_s",
    "spectral.gram": "spectral.gram_s", "spectral.lambda1": "spectral.lambda1_s",
    "spectral.full_spectrum": "spectral.full_spectrum_s",
    "spectral.quasirandom_certificate": "spectral.certificate_s",
    "discrepancy.disc_exhaustive": "discrepancy.exhaustive_s",
    "discrepancy.disc_localsearch": "discrepancy.localsearch_s",
    "discrepancy.disc_sample": "discrepancy.sample_s",
    "cli.render_json": "cli.render_s",
}


def _pass_metrics(p: dict, lambda_oracle: dict) -> dict[str, float]:
    m = dict.fromkeys((
        "core.gen_s", *_OWN.values(), "core.bytes_decoded",
        "exactcount.trace_s.k_odd", "exactcount.trace_s.k_even_fits53",
        "exactcount.trace_s.k_even_big", "exactcount.trace_calls",
        "exactcount.trace_bits_max", "spectral.iterations", "spectral.unconverged",
        "spectral.lambda1_relerr_max", "discrepancy.bound_s", "cli.self_s",
        "cli.report_bytes",
    ), 0.0)
    spans = p["spans"]
    typical = float(np.median(p["scale"]))
    scale = [typical if s[4] is None else p["scale"][s[4]] for s in spans]
    own = [t * f for t, f in zip(_self_times(spans), scale)]
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    subsets = 0
    for i, (name, start, end, _, job, attrs) in enumerate(spans):
        attrs = attrs or {}
        if name in _OWN:
            m[_OWN[name]] += own[i]
        if name in GENERATORS:
            m["core.gen_s"] += own[i]
        if name.startswith("cli."):
            m["cli.self_s"] += own[i]
        if name == "core.decode":
            m["core.bytes_decoded"] += attrs.get("bytes", 0)
        elif name == "cli.render_json":
            m["cli.report_bytes"] += attrs.get("bytes", 0)
        elif name == "discrepancy.disc_exhaustive":
            subsets += 2 ** attrs.get("n", 0)
        elif name == "discrepancy.spectral_upper_bound":
            m["discrepancy.bound_s"] += (end - start) * scale[i]
        elif name == "exactcount.even_cycles_trace" and "k" in attrs:
            if attrs["k"] % 2:
                key = "exactcount.trace_s.k_odd"
            elif attrs["bits"] <= 53:
                key = "exactcount.trace_s.k_even_fits53"
            else:
                key = "exactcount.trace_s.k_even_big"
            m[key] += _subtree_self(spans, own, children, i, "exactcount")
            m["exactcount.trace_calls"] += 1
            m["exactcount.trace_bits_max"] = max(m["exactcount.trace_bits_max"], attrs["bits"])
        elif name in ("spectral.lambda1", "spectral.full_spectrum") and attrs:
            m["spectral.iterations"] += attrs["iterations"]
            m["spectral.unconverged"] += 0 if attrs["converged"] else 1
            ref = lambda_oracle.get(job)
            if ref:
                err = abs(attrs["lambda1"] - ref) / ref
                m["spectral.lambda1_relerr_max"] = max(m["spectral.lambda1_relerr_max"], err)
    calls = p["cache"]["hits"] + p["cache"]["misses"]
    m["core.sign_array_hit_ratio"] = p["cache"]["hits"] / calls if calls else 0.0
    ex = m["discrepancy.exhaustive_s"]
    m["discrepancy.subsets_per_s"] = subsets / ex if ex > 0 else 0.0
    m["discrepancy.bound_share"] = m["discrepancy.bound_s"] / sum(p["times"])
    return m
