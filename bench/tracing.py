"""Spans around the calls into each layer, recorded from outside the program.

A traced pass rebinds the names that ``mcmctrack.tracker`` imported from the
layer modules, so every call the tracker makes into a layer runs through a
wrapper that records a span (name, start, end, enclosing span, scan id). The
benchmark wraps its own direct calls (``simulate_scenario``,
``sample_children``, ``exact_posterior``, ``write_reports_ldjson``) the same
way. Spans live in flat arrays until the run ends. An untraced pass uses
``NULL_TRACER``, which hands back the original functions, so nothing is
rebound and no wrapper runs.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np


def _probe_predict(tracer, args, kwargs, result):
    track = args[0] if args else kwargs["t"]
    tracer.distinct("filters.predict_track", track.mean.tobytes() + track.covariance.tobytes())


def _probe_count(tracer, args, kwargs, result):
    tracer.distinct("hypotheses.count_grandchildren", (args, tuple(sorted(kwargs.items()))))


def _probe_matrix(tracer, args, kwargs, result):
    entries = result.log_entries[: result.n_returns, : result.n_objects]
    tracer.count("likelihoods.build_matrix.entries", entries.size)
    tracer.count("likelihoods.build_matrix.finite", int(np.isfinite(entries).sum()))


def _probe_children(tracer, args, kwargs, result):
    tracer.count("sampler.sample_children.children", len(result))
    tracer.count(
        "sampler.sample_children.finite",
        sum(1 for s in result if s.log_score > -np.inf),
    )


def _probe_posterior(tracer, args, kwargs, result):
    tracer.count("oracle.exact_posterior.support", sum(1 for p in result.values() if p > 0.0))


# Attribute of mcmctrack.tracker -> span name. These are the layer entry
# points the tracker calls; the other helpers it imported (log_sum_exp,
# weight_entropy, newborn_track, in_fov, chain_seed) stay unwrapped and count
# as tracker.step self time.
TRACKER_LAYERS = {
    "predict_track": "filters.predict_track",
    "update_track": "filters.update_track",
    "count_grandchildren": "hypotheses.count_grandchildren",
    "log_child_prior": "hypotheses.log_child_prior",
    "prune": "hypotheses.prune",
    "build_matrix": "likelihoods.build_matrix",
    "hypothesis_log_likelihood": "likelihoods.hypothesis_log_likelihood",
    "enumerate_child_events": "oracle.enumerate_child_events",
    "sample_children": "sampler.sample_children",
}

# Span name -> function run on (tracer, args, kwargs, result) after the span
# closes, so that its cost stays outside the layer's busy time.
PROBES = {
    "filters.predict_track": _probe_predict,
    "hypotheses.count_grandchildren": _probe_count,
    "likelihoods.build_matrix": _probe_matrix,
    "sampler.sample_children": _probe_children,
    "oracle.exact_posterior": _probe_posterior,
}


class NullTracer:
    """Tracing off: the original functions, no spans, no counts."""

    def wrap(self, name, fn):
        return fn

    def installed(self, module):
        return nullcontext()

    def scan(self, name):
        return nullcontext()

    def count(self, key, n=1):
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Records one span per wrapped call into flat in-memory arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.scan_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._scan = -1
        self._n_scans = 0
        self._distinct: dict[str, set] = defaultdict(set)

    # -- recording -------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.scan_id.append(self._scan)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def distinct(self, name: str, key) -> None:
        """Remember an input of ``name``; distinct inputs are counted per scan."""
        self._distinct[name].add(key)

    def wrap(self, name: str, fn):
        nid = self._nid(name)
        probe = PROBES.get(name)
        if inspect.isgeneratorfunction(fn):
            # The work of a generator happens while it is resumed, so each
            # resumption is one span and each yielded item one event.
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.counts[name + ".events"] += 1
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, module):
        """Rebind the layer names ``module`` imported; restore them on exit."""
        saved = {attr: getattr(module, attr) for attr in TRACKER_LAYERS}
        try:
            for attr, name in TRACKER_LAYERS.items():
                setattr(module, attr, self.wrap(name, saved[attr]))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    @contextmanager
    def scan(self, name: str):
        """Root span of one scan; every span opened inside shares its scan id."""
        self._scan = self._n_scans
        self._n_scans += 1
        idx = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(idx)
            for layer, keys in self._distinct.items():
                self.counts[layer + ".distinct"] += len(keys)
            self._distinct.clear()
            self._scan = -1

    # -- results ---------------------------------------------------------

    def busy(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Per span name: total duration, call count and self time (duration
        minus the union of the intervals its child spans cover)."""
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        name_id = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        busy, calls, self_s = {}, {}, {}
        for nid, name in enumerate(self.names):
            sel = name_id == nid
            busy[name] = float(dur[sel].sum())
            calls[name] = int(sel.sum())
        covered = np.zeros(len(dur))
        children = np.flatnonzero(parent >= 0)
        order = children[np.lexsort((start[children], parent[children]))]
        run_parent, run_end = -1, 0.0
        for idx in order:
            p, s, e = parent[idx], start[idx], end[idx]
            if p != run_parent:
                run_parent, run_end = p, start[p]
            s = max(s, run_end)
            if e > s:
                covered[p] += e - s
                run_end = e
        for nid, name in enumerate(self.names):
            sel = name_id == nid
            self_s[name] = float((dur[sel] - covered[sel]).sum())
        return busy, calls, self_s

    def write(self, path: Path) -> None:
        """Write every span and count; called once, when the run ends."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            counts=np.array(json.dumps(dict(self.counts))),
            name_id=np.array(self.name_id, dtype=np.uint16),
            scan_id=np.array(self.scan_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
        )
