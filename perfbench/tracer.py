"""Spans and counters around sarlab's layer boundaries, for the traced run.

A span is (id, name, start, end, parent, run id).  Spans stay in memory and
are written out by the benchmark when a pass ends.  Layers are traced by
replacing each public function in the module namespace where its caller
looks it up (``sarlab.embedding.train``, ``sarlab.cli.sigma_sweep``, ...),
so nested calls inside the package are seen too.  Nothing here is installed
in the untraced run.

Certificates solved in ``sigma_sweep``'s process pool run in forked children
that inherit the wrappers.  A child cannot append to the parent's span list,
so its certify wrapper attaches the span and its counts (eigen-solves,
solved nu points) to the returned Certificate, which is pickled back; the
parent's ``sigma_sweep`` wrapper moves them into the trace and removes the
attribute again.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import Counter

import numpy as np

CHILD_ATTR = "_perfbench_trace"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def start(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "start": time.monotonic(),
                "end": None, "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def stop(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self._stack.pop()

    def add_child_span(self, name: str, start: float, end: float, parent: dict) -> None:
        self.spans.append({"id": len(self.spans), "name": name, "start": start,
                           "end": end, "parent": parent["id"], "run": self.run_id})

    def wrap(self, name: str, fn, on_result=None):
        """fn wrapped in a span; on_result(args, kwargs, result) updates counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stop(span)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def install(tracer: Tracer) -> None:
    """Replace sarlab's layer entry points, numpy.linalg.eigh and certify's
    fixed-nu solver with traced or counted versions for the rest of this
    process."""
    ml = importlib.import_module("sarlab.morris_lecar")
    emb = importlib.import_module("sarlab.embedding")
    shallow = importlib.import_module("sarlab.shallow")
    # by module path: the package re-exports a function named certify
    cert = importlib.import_module("sarlab.certify")
    cli = importlib.import_module("sarlab.cli")
    sde = importlib.import_module("sarlab.sde")
    c = tracer.counters

    eigh = np.linalg.eigh

    @functools.wraps(eigh)
    def counted_eigh(*args, **kwargs):
        c["certify.eigh_calls"] += 1
        return eigh(*args, **kwargs)

    np.linalg.eigh = counted_eigh

    solve_fixed_nu = cert._solve_fixed_nu

    @functools.wraps(solve_fixed_nu)
    def counted_solve_fixed_nu(*args, **kwargs):
        c["certify.nu_points"] += 1
        return solve_fixed_nu(*args, **kwargs)

    def certify_counts(result) -> Counter:
        return Counter({"certify.certify_calls": 1, "certify.capped": int(result.capped)})

    traced_certify = tracer.wrap("certify.certify", cert.certify,
                                 lambda a, k, r: c.update(certify_counts(r)))

    @functools.wraps(cert.certify)
    def certify(*args, **kwargs):
        if os.getpid() == tracer.pid:
            return traced_certify(*args, **kwargs)
        # forked sweep worker: ship the span and counters back on the result
        shipped = ("certify.eigh_calls", "certify.nu_points")
        before = {k: c[k] for k in shipped}
        start = time.monotonic()
        result = certify.__wrapped__(*args, **kwargs)
        end = time.monotonic()
        counts = certify_counts(result)
        counts.update({k: c[k] - before[k] for k in shipped})
        object.__setattr__(result, CHILD_ATTR, {"start": start, "end": end, "counts": counts})
        return result

    def sweep_span(fn):
        @functools.wraps(fn)
        def sigma_sweep(*args, **kwargs):
            span = tracer.start("certify.sigma_sweep")
            try:
                results = fn(*args, **kwargs)
            finally:
                tracer.stop(span)
            for _, certificate in results:
                shipped = certificate.__dict__.pop(CHILD_ATTR, None)
                if shipped is not None:  # else it was solved in this process, traced already
                    tracer.add_child_span("certify.certify", shipped["start"], shipped["end"], span)
                    c.update(shipped["counts"])
            return results

        return sigma_sweep

    def on_simulate_ml(args, kwargs, result):
        c["morris_lecar.em_steps"] += _arg(args, kwargs, 2, "cfg").n_steps

    def on_train(args, kwargs, result):
        n = np.atleast_2d(np.asarray(args[0])).shape[0]
        options = _arg(args, kwargs, 3, "options")
        c["shallow.sgd_steps"] += result.loss_history.size * math.ceil(n / options.batch_size)

    def on_ensemble(args, kwargs, result):
        cfg = _arg(args, kwargs, 2, "cfg")
        c["sde.path_steps"] += cfg.n_steps * cfg.n_paths
        c["sde.diverged_paths"] += sum(path.diverged for path in result)

    def on_build(args, kwargs, result):
        frac = float(np.max(result.channel_rms / result.channel_range))
        c["embedding.fit_rms_frac_max"] = max(c["embedding.fit_rms_frac_max"], frac)

    cert.certify = certify
    cert._solve_fixed_nu = counted_solve_fixed_nu
    cert.linear_necessity_bound = tracer.wrap("certify.linear_necessity_bound",
                                              cert.linear_necessity_bound)
    cli.sigma_sweep = sweep_span(cli.sigma_sweep)
    cli.load_embedding = tracer.wrap("shallow.load_embedding", cli.load_embedding)
    cli.main = tracer.wrap("cli.main", cli.main)
    shallow.load_embedding = tracer.wrap("shallow.load_embedding", shallow.load_embedding)
    ml.calibrate_iapp = tracer.wrap("morris_lecar.calibrate_iapp", ml.calibrate_iapp)
    ml.simulate_ml = tracer.wrap("morris_lecar.simulate_ml", ml.simulate_ml, on_simulate_ml)
    emb.build_embedding = tracer.wrap("embedding.build_embedding", emb.build_embedding, on_build)
    emb.train = tracer.wrap("shallow.train", emb.train, on_train)
    emb.embed = tracer.wrap("shallow.embed", emb.embed)
    sde.simulate_ensemble = tracer.wrap("sde.simulate_ensemble", sde.simulate_ensemble,
                                        on_ensemble)
    sde.lowpass = tracer.wrap("sde.lowpass", sde.lowpass)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_times(spans: list[dict]) -> dict[str, float]:
    """Self time per span name: each span's duration minus the part of it
    that its child spans cover (children running in parallel count once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, float] = {}
    for s in spans:
        inner = [(max(a, s["start"]), min(b, s["end"])) for a, b in children.get(s["id"], [])]
        self_time = (s["end"] - s["start"]) - _covered([iv for iv in inner if iv[1] > iv[0]])
        out[s["name"]] = out.get(s["name"], 0.0) + self_time
    return out
