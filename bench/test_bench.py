"""Checks of the benchmark harness: tracing changes no output of the
program, every wrapper the tracer installs is removed afterwards, and
times are scaled by the reference passes near them."""

from __future__ import annotations

import statistics
import time

import pytest

import inputs
import ragplan.graph as rp_graph
import speedref
import tracer as bench_tracer
import workloads

# Each workload at a size that runs in seconds.
SMALL = {
    "serve-demo": dict(iterations=1, digest_ops=8, write_every=4),
    "index-4k": dict(n_instructions=200, digest_ops=6, write_every=3, write_instructions=20),
}


def wrapped_attributes() -> dict:
    targets = [(owner, attr) for owner, attr, _, _ in bench_tracer.TARGETS]
    targets.append(("ragplan.cli", "make_backend"))
    return {(owner, attr): bench_tracer._resolve(owner).__dict__[attr] for owner, attr in targets}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_gives_untraced_outputs_and_unwraps(name, tmp_path):
    originals = wrapped_attributes()
    run = workloads.WORKLOADS[name]
    plain = run(5, 0.0, tmp_path / "plain", None, **SMALL[name])
    tracer = bench_tracer.Tracer()
    traced = run(5, 0.0, tmp_path / "traced", tracer, **SMALL[name])

    assert plain.problems == []
    assert traced.problems == []
    assert plain.digest == traced.digest
    assert not tracer.installed
    after = wrapped_attributes()
    assert all(after[key] is original for key, original in originals.items())
    assert tracer.missing == []
    assert tracer.get("loop", "policy.traverse").calls > 0
    assert any(span[1] == "op.read" for span in tracer.spans)


def test_times_scale_by_the_reference_passes_near_them():
    speed = speedref.SpeedRef()
    nominal = speedref.NOMINAL_S
    speed.samples = [(0.0, nominal), (0.5, nominal), (10.0, 2 * nominal), (10.5, 2 * nominal)]
    assert speed.scaled(0.1, 0.3) == pytest.approx(0.3)
    assert speed.scaled(10.1, 0.3) == pytest.approx(0.15)
    assert speed.scaled(9.5, 0.2) == pytest.approx(0.1)
    fresh = speedref.SpeedRef()
    fresh.sample(3)
    with fresh.sampling():
        time.sleep(speedref.SAMPLE_AFTER_S + 3.5 * speedref.SAMPLE_EVERY_S)
    assert len(fresh.samples) > 3 and fresh.samples == sorted(fresh.samples)


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (20, 21, 40, 99, 100, 1000):
        values = [float(i) for i in range(n)]
        pct, value = workloads.tail(values)
        assert sum(v > value for v in values) >= 10
        assert value >= statistics.median(values)
    assert workloads.tail([float(i) for i in range(40)]) == (75.0, 29.0)
    assert workloads.tail([float(i) for i in range(1000)]) == (90.0, 899.0)


def test_tail_is_the_median_up_to_twenty_samples():
    for n in (1, 12, 20):
        values = [float(i) for i in range(n)]
        assert workloads.tail(values) == (50.0, statistics.median(values))


def test_node_walks_follow_stored_edges():
    corpus = inputs.random_corpus(3, 200)
    graph = rp_graph.build_graph(corpus, workloads.DELTA, workloads.INDEX_EMBEDDER)
    a, b = next((a, b) for a, b in sorted(graph.edges) if (b, a) not in graph.edges)
    only_a, only_b = (sorted(set(graph.nodes[x].instructions) - set(graph.nodes[y].instructions))
                      for x, y in ((a, b), (b, a)))
    text_a, text_b = only_a[0], only_b[0]
    assert workloads.is_node_walk(graph, (a, b), (text_a, text_b))
    assert not workloads.is_node_walk(graph, (a, b), (text_b, text_a))
    assert not workloads.is_node_walk(graph, (b, a), (text_b, text_a))
    assert not workloads.is_node_walk(graph, (a,), ("no such instruction",))
    assert not workloads.is_node_walk(graph, (), ())
