"""Fast checks of the benchmark's own scoring and tracing.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import math

import numpy as np
import pytest

import mcmctrack.tracker as tracker_module
from mcmctrack.filters import GaussianTrack
from mcmctrack.hypotheses import AssociationEvent
from mcmctrack.presets import preset_single_spawn, tracker_config_for
from mcmctrack.sampler import ChildSample
from mcmctrack.simulate import simulate_scenario

from quality import ospa, posterior_tv
from tracing import TRACKER_LAYERS, Tracer
from workloads import REF_NOMINAL_S, PassResult


@pytest.mark.parametrize(
    "estimates, truth, expected",
    [
        ([], [], 0.0),
        ([[0.0, 0.0]], [[0.0, 0.0]], 0.0),
        ([[0.0, 0.0]], [[3.0, 4.0]], 5.0),
        # Beyond the cutoff a pairing costs c.
        ([[0.0, 0.0]], [[30.0, 40.0]], 10.0),
        # Cardinality mismatch: one exact match plus c for the missed object.
        ([[0.0, 0.0]], [[0.0, 0.0], [100.0, 100.0]], 5.0),
        # The smaller set is assigned optimally: (1,0) -> (0,0) costs 1,
        # (5,0) is unassigned and costs c; averaged over the 2 of the larger set.
        ([[0.0, 0.0], [5.0, 0.0]], [[1.0, 0.0]], 5.5),
        # Optimal assignment, not nearest-first: 2 + 2 rather than 1 + 5.
        ([[0.0, 0.0], [4.0, 0.0]], [[2.0, 0.0], [6.0, 0.0]], 2.0),
        ([], [[1.0, 1.0]], 10.0),
    ],
)
def test_ospa_hand_computed(estimates, truth, expected):
    assert ospa(estimates, truth, c=10.0, p=1.0) == pytest.approx(expected)
    assert ospa(truth, estimates, c=10.0, p=1.0) == pytest.approx(expected)


def test_posterior_tv_known_pair():
    a = AssociationEvent(assignments=("t00",))
    b = AssociationEvent(assignments=("clutter",))
    c = AssociationEvent(assignments=("birth",))
    samples = [ChildSample(a, 0.0, visits=3), ChildSample(b, -1.0, visits=1)]
    posterior = {a.canonical_key(): 0.5, b.canonical_key(): 0.25, c.canonical_key(): 0.25}
    # Visits give {a: 0.75, b: 0.25}: 0.5 * (0.25 + 0 + 0.25).
    assert posterior_tv(samples, posterior) == pytest.approx(0.25)
    assert posterior_tv([ChildSample(a, 0.0, visits=7)], {a.canonical_key(): 1.0}) == 0.0


def _first_scan():
    scenario = preset_single_spawn(seed=0)
    _, frames = simulate_scenario(scenario)
    tracker = tracker_module.Tracker(tracker_config_for(scenario, seed=0))
    hyps = tracker.initial_hypotheses([
        GaussianTrack(f"t{i:02d}", s, scenario.initial_covariance())
        for i, s in enumerate(scenario.objects)
    ])
    return tracker, hyps, frames[0]


def test_traced_run_restores_tracker_module():
    before = dict(vars(tracker_module))
    tracker, hyps, frame = _first_scan()
    tracer = Tracer()
    with tracer.installed(tracker_module):
        assert all(getattr(tracker_module, a) is not before[a] for a in TRACKER_LAYERS)
        with tracer.scan("tracker.step"):
            tracker.step(hyps, frame)
    after = dict(vars(tracker_module))
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    busy, calls, _ = tracer.busy()
    assert calls["tracker.step"] == 1
    assert calls["sampler.sample_children"] == 1
    assert calls["filters.predict_track"] == 1
    assert busy["sampler.sample_children"] <= busy["tracker.step"]
    assert set(tracer.scan_id) == {0}


def test_traced_run_restores_tracker_module_after_error():
    before = dict(vars(tracker_module))
    with pytest.raises(RuntimeError):
        with Tracer().installed(tracker_module):
            raise RuntimeError("scan failed")
    assert all(vars(tracker_module)[k] is before[k] for k in before)


def test_self_time_subtracts_union_of_children():
    tracer = Tracer()
    root, child = tracer._nid("root"), tracer._nid("child")
    spans = [(root, -1, 0.0, 10.0), (child, 0, 1.0, 3.0), (child, 0, 2.0, 5.0), (child, 0, 7.0, 8.0)]
    for nid, parent, start, end in spans:
        tracer.name_id.append(nid)
        tracer.scan_id.append(0)
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    busy, calls, self_s = tracer.busy()
    assert busy == {"root": 10.0, "child": 6.0}
    assert calls == {"root": 1, "child": 3}
    # Children cover [1, 5] and [7, 8]: 5 of the root's 10 seconds.
    assert self_s["root"] == pytest.approx(5.0)
    assert math.isclose(self_s["child"], 6.0)


def test_generator_layer_counts_events():
    tracer = Tracer()

    def gen(n):
        yield from range(n)

    assert list(tracer.wrap("oracle.enumerate_child_events", gen)(3)) == [0, 1, 2]
    _, calls, _ = tracer.busy()
    assert tracer.counts["oracle.enumerate_child_events.events"] == 3
    assert calls["oracle.enumerate_child_events"] == 4  # three yields plus the exhausting resume
    assert np.all(np.array(tracer.end) >= np.array(tracer.start))


def test_calibration_scales_each_scan_by_the_loops_around_it():
    r = REF_NOMINAL_S
    # The machine slows to a quarter of the reference speed after scan 2.
    p = PassResult(setup_s=0.01, latencies=[1.0] * 6, loaded=[False] + [True] * 5,
                   write_s=0.5, ref=[r, r, r, 4 * r, 4 * r, 4 * r, 4 * r])
    c = p.calibrated()
    # Scan i sits between loops i and i + 1 and is scaled by the median of
    # the three loops on each side of it.
    assert c.latencies == pytest.approx([1.0, 1.0, 1.0 / 2.5, 0.25, 0.25, 0.25])
    assert c.setup_s == pytest.approx(0.01)
    assert c.write_s == pytest.approx(0.5 / 4)
    assert c.loaded == p.loaded
    assert c.track_s == pytest.approx(sum(c.latencies) + 0.5 / 4)
