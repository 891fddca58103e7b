"""The memoized traversal against the per-visit traversal it replaced.

``traverse`` works out each node's best instruction and ordered out-edges
and each state's row and policy probabilities once per call; the
per-visit reference in ``traverse_reference.py`` does all of it on every
visit. Both must give the same candidates, node sequences, episode
states, actions, log-probabilities and forced flags, bit for bit, and
build the same number of states.
"""

from dataclasses import replace

import numpy as np
import pytest

import ragplan.policy as policy_module
import traverse_reference
from ragplan.graph import GraphIndex, QueryScores
from ragplan.policy import build_state, traverse
from test_graph_index import demo_graph, policies, queries_for, random_graph
from traverse_reference import reference_traverse

HOOKS = ((), ("no-lookup-before-search",))


def steps_of(candidate):
    return [(s.state.tobytes(), s.action, s.log_prob, s.forced) for s in candidate.episode.steps]


def assert_identical(new, old):
    assert [c.path for c in new] == [c.path for c in old]
    assert [c.node_sequence for c in new] == [c.node_sequence for c in old]
    assert [steps_of(c) for c in new] == [steps_of(c) for c in old]


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def assert_matches_reference(monkeypatch, graph, query_text, seed):
    built = count_calls(monkeypatch, policy_module, "build_state")
    scored = count_calls(monkeypatch, traverse_reference, "reference_state")
    for params, config in policies(seed):
        for hooks in HOOKS:
            config = replace(config, rule_hooks=hooks)
            for mode in ("greedy", "sample"):
                new = traverse(graph, query_text, params, config, mode=mode,
                               rng=np.random.default_rng(seed))
                old = reference_traverse(graph, query_text, params, config, mode=mode,
                                         rng=np.random.default_rng(seed))
                assert_identical(new, old)
                # Every visit still builds its state.
                assert len(built) == len(scored)


@pytest.mark.parametrize("seed", range(40))
def test_memoized_traversal_matches_per_visit_reference(monkeypatch, seed):
    graph = random_graph(seed)
    for query_text in queries_for(graph, seed):
        assert_matches_reference(monkeypatch, graph, query_text, seed)


def test_memoized_traversal_matches_per_visit_reference_on_demo_world(monkeypatch):
    graph, query = demo_graph()
    questions = sorted(query.iter_questions(), key=lambda q: q.question_id)[::6]
    for i, question in enumerate(questions):
        assert_matches_reference(monkeypatch, graph, question.text, i)


def test_each_node_orders_its_out_edges_once_per_traversal(monkeypatch):
    graph, query = demo_graph()
    params, config = policies(0)[0]
    config = replace(config, max_nodes_visited=256)
    calls = count_calls(monkeypatch, GraphIndex, "out_edges")
    visits = count_calls(monkeypatch, policy_module, "build_state")
    for question in sorted(query.iter_questions(), key=lambda q: q.question_id)[:5]:
        calls.clear()
        visits.clear()
        traverse(graph, question.text, params, config)
        nodes = [args[1] for args in calls]
        assert len(nodes) == len(set(nodes))
        assert len(nodes) <= len(visits)


def test_state_rows_are_kept_and_read_only():
    graph, query = demo_graph()
    question = next(iter(query.iter_questions()))
    scores = QueryScores(graph.index(), question.text)
    edge = next(iter(graph.edges.values()))
    row = build_state(graph, scores, edge.to_node, edge)
    assert build_state(graph, scores, edge.to_node, edge) is row
    with pytest.raises(ValueError):
        row[0] = 1.0
    params, config = policies(0)[0]
    for candidate in traverse(graph, question.text, params, config):
        for step in candidate.episode.steps:
            with pytest.raises(ValueError):
                step.state[1] = 0.0
