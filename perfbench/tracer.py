"""Span tracer that wraps rydramsey's public functions from outside the package.

Intra-package calls resolve through module globals (``experiments`` imports
``tau_half`` by name, ``gas_average`` imports ``f_kernel``), so wrapping a
function only where it is defined would miss them. ``Tracer.install``
replaces each traced name in every loaded ``rydramsey`` module that holds
the original object, and wraps ``AtomConfiguration.coupling_matrix`` on the
class. Spans are kept in memory; ``take`` hands over one pass worth of them
and ``summarize`` turns them into the per-layer metrics named in
``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _f_kernel_tag(args, kwargs):
    g = _arg(args, kwargs, 1, "g")
    return ("g0" if g == 0 else "gpos"), int(np.size(_arg(args, kwargs, 0, "x")))


def _exponent_integral_tag(args, kwargs):
    # Route as exponent_integral picks it: t = 0 returns exactly and counts
    # with the closed forms; "auto" takes the closed form when gamma t = 0.
    spec = _arg(args, kwargs, 0, "spec")
    t = _arg(args, kwargs, 1, "t")
    method = _arg(args, kwargs, 2, "method", "auto")
    closed = (
        t == 0
        or method == "closed"
        or (method == "auto" and spec.protocol.gamma * t == 0.0)
    )
    return ("closed" if closed else "quadrature"), 1


def _monte_carlo_tag(args, kwargs):
    # Nominal pair evaluations: n_samples * N * (N - 1) * n_times.
    times = _arg(args, kwargs, 1, "times")
    n_samples = _arg(args, kwargs, 2, "n_samples")
    n_atoms = _arg(args, kwargs, 3, "n_atoms")
    return None, int(n_samples) * int(n_atoms) * (int(n_atoms) - 1) * int(np.size(times))


# (layer name, defining module, attribute, tagger). The layer name is the
# prefix of the metric names in BENCHMARK.json.
LAYERS = (
    ("ising_core.f_kernel", "rydramsey.ising_core", "f_kernel", _f_kernel_tag),
    ("ising_core.sigma_plus_couplings", "rydramsey.ising_core", "sigma_plus_couplings", None),
    ("ising_core.connected_sxsx", "rydramsey.ising_core", "connected_sxsx", None),
    ("ising_core.coupling_matrix", "rydramsey.ising_core", "AtomConfiguration.coupling_matrix", None),
    ("lattice.lattice_contrast", "rydramsey.lattice", "lattice_contrast", None),
    ("lattice.correlation_map", "rydramsey.lattice", "correlation_map", None),
    ("gas_average.exponent_integral", "rydramsey.gas_average", "exponent_integral", _exponent_integral_tag),
    ("gas_average.contrast_gas", "rydramsey.gas_average", "contrast_gas", None),
    ("gas_average.tau_half", "rydramsey.gas_average", "tau_half", None),
    ("gas_average.monte_carlo_gas", "rydramsey.gas_average", "monte_carlo_gas", _monte_carlo_tag),
    ("oracle.ramsey_sigma_plus", "rydramsey.oracle", "ramsey_sigma_plus", None),
    ("oracle.echo_equivalence_check", "rydramsey.oracle", "echo_equivalence_check", None),
    ("experiments.run_fig2", "rydramsey.experiments", "run_fig2", None),
    ("experiments.run_fig3", "rydramsey.experiments", "run_fig3", None),
    ("experiments.run_fig4", "rydramsey.experiments", "run_fig4", None),
    ("experiments.run_fig5", "rydramsey.experiments", "run_fig5", None),
    ("experiments.run_scan", "rydramsey.experiments", "run_scan", None),
    ("experiments.run_validate", "rydramsey.experiments", "run_validate", None),
    ("config.load_config", "rydramsey.config", "load_config", None),
)


class Tracer:
    """In-memory span recorder. A span is [layer, parent index, start, end, tag, weight]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def install(self) -> None:
        """Replace every traced function by a span-recording wrapper."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "rydramsey"]
        for layer, modname, attr, tagger in LAYERS:
            owner_name, _, fname = attr.rpartition(".")
            owner = sys.modules[modname]
            if owner_name:
                cls = getattr(owner, owner_name)
                setattr(cls, fname, self._wrap(layer, getattr(cls, fname), tagger))
                continue
            original = getattr(owner, fname)
            wrapper = self._wrap(layer, original, tagger)
            for mod in modules:
                if vars(mod).get(fname) is original:
                    setattr(mod, fname, wrapper)

    def _wrap(self, layer, fn, tagger):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag, weight = tagger(args, kwargs) if tagger else (None, 1)
            rec = [layer, stack[-1] if stack else -1, 0.0, 0.0, tag, weight]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    def take(self) -> list:
        """Return the spans recorded so far and start an empty list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def summarize(spans: list, speed_factor: float) -> dict:
    """Per-layer metrics of one pass; self time is a span minus its child spans.

    Times are multiplied (rates divided) by ``speed_factor``, the pass's
    wall-to-reference-speed factor, so they compare like ``pass_s``.
    """
    child = [0.0] * len(spans)
    for name, parent, t0, t1, tag, weight in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for layer, *_ in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    tag_self = {}
    tag_weight = {}
    mc_pairs = 0
    mc_wall = 0.0
    probes = 0
    for i, (name, parent, t0, t1, tag, weight) in enumerate(spans):
        self_s = ((t1 - t0) - child[i]) * speed_factor
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        if tag is not None:
            key = (name, tag)
            tag_self[key] = tag_self.get(key, 0.0) + self_s
            tag_weight[key] = tag_weight.get(key, 0) + weight
        if name == "gas_average.monte_carlo_gas":
            mc_pairs += weight
            mc_wall += (t1 - t0) * speed_factor
        elif name == "gas_average.contrast_gas" and parent >= 0:
            probes += spans[parent][0] == "gas_average.tau_half"

    fk = "ising_core.f_kernel"
    out[f"{fk}.evals"] = sum(w for (n, _), w in tag_weight.items() if n == fk)
    for tag in ("g0", "gpos"):
        evals = tag_weight.get((fk, tag), 0)
        out[f"{fk}.ns_per_eval.{tag}"] = 1e9 * tag_self[(fk, tag)] / evals if evals else 0.0
    ei = "gas_average.exponent_integral"
    for tag in ("closed", "quadrature"):
        out[f"{ei}.calls.{tag}"] = tag_weight.get((ei, tag), 0)
    th_calls = out["gas_average.tau_half.calls"]
    out["gas_average.tau_half.probes_per_call"] = probes / th_calls if th_calls else 0.0
    out["gas_average.monte_carlo_gas.pair_evals_per_s"] = mc_pairs / mc_wall if mc_wall else 0.0
    out["trace.spans"] = len(spans)
    return out


def write_spans(path: str, spans: list) -> None:
    """Write spans as CSV, times in seconds from the first span's start."""
    origin = spans[0][2] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,parent,layer,start_s,end_s,tag,weight\n")
        for i, (name, parent, t0, t1, tag, weight) in enumerate(spans):
            fh.write(
                f"{i},{parent},{name},{t0 - origin:.9f},{t1 - origin:.9f},"
                f"{tag or ''},{weight}\n"
            )
