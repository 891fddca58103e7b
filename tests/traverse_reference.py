"""The per-visit depth-first traversal that ``ragplan.policy.traverse``
replaced, kept as a test oracle: every visit scores its state, runs the
policy and orders the node's out-edges afresh. The memoized traversal
must give the same candidates, node sequences, episode states, actions,
log-probabilities and forced flags, bit for bit.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ragplan.corpus import InstructionPath
from ragplan.embedding import embed_text
from ragplan.errors import ConfigError, NotFoundError
from ragplan.graph import EdgeSet, InstructionGraph, QueryScores
from ragplan.policy import (
    EXCLUDE,
    INCLUDE,
    PROB_FLOOR,
    RULE_HOOKS,
    Candidate,
    Episode,
    EpisodeStep,
    PolicyParams,
    RlConfig,
    _check_finite_params,
    _checked_forward,
    _start_nodes,
)


def reference_state(scores: QueryScores, node_id: int, in_edge: EdgeSet | None) -> np.ndarray:
    """``build_state`` as it was before state rows were kept."""
    task_sim, question_sim = (0.0, 0.0) if in_edge is None else scores.best_task(in_edge)
    return np.array([scores.affinity(node_id), task_sim, question_sim], dtype=np.float64)


def reference_traverse(
    graph: InstructionGraph,
    query_text: str,
    params: PolicyParams,
    config: RlConfig,
    mode: str = "greedy",
    rng: np.random.Generator | None = None,
    task_id: str = "",
    question_id: str = "",
) -> list[Candidate]:
    """Depth-first candidate retrieval.

    Starting from the K most query-similar nodes, the policy acts at each
    visited node: include appends the node's most query-similar
    instruction and descends into out-neighbors ordered by edge task
    similarity; exclude, a dead end, or the length cap emits the current
    path and backtracks. Traversal stops after K paths or once the node
    visit budget is spent.
    """
    if graph.is_empty():
        raise NotFoundError("cannot traverse an empty graph")
    if mode not in ("greedy", "sample"):
        raise ConfigError(f"unknown traversal mode {mode!r}")
    if mode == "sample" and rng is None:
        rng = np.random.default_rng(0)
    # The weights do not change during a traversal: checked once here,
    # each visit checks only its state.
    _check_finite_params(params)
    scores = QueryScores(graph.index(), embed_text(query_text, graph.embedder))
    hooks = [RULE_HOOKS[name] for name in config.rule_hooks]
    budget = {"left": config.max_nodes_visited}

    def start_walks(start: int):
        """Depth-first candidate generator rooted at one start node."""
        path_texts: list[str] = []
        node_stack: list[int] = []
        step_stack: list[EpisodeStep] = []
        # Directed edges already on the current branch; a walk may revisit
        # a node through a different edge but never re-traverse the same
        # edge, which rules out degenerate ping-pong cycles.
        edges_on_branch: set[tuple[int, int]] = set()

        def snapshot() -> Candidate:
            return Candidate(
                path=InstructionPath(tuple(path_texts), task_id, question_id, 0.0),
                episode=Episode(steps=list(step_stack)),
                node_sequence=tuple(node_stack),
            )

        def visit(node_id: int, in_edge: EdgeSet | None):
            if budget["left"] <= 0:
                return
            budget["left"] -= 1
            state = reference_state(scores, node_id, in_edge)
            best_text = scores.best_text(node_id)
            forced = any(not hook(best_text, path_texts) for hook in hooks)
            if forced:
                action, log_prob = EXCLUDE, 0.0
            else:
                p_include, p_exclude = _checked_forward(params, state)
                if mode == "greedy":
                    action = INCLUDE if p_include >= p_exclude else EXCLUDE
                else:
                    action = INCLUDE if rng.random() < p_include else EXCLUDE
                log_prob = float(
                    np.log(max(p_include if action == INCLUDE else p_exclude, PROB_FLOOR))
                )
            step_stack.append(
                EpisodeStep(state=state, action=action, log_prob=log_prob, forced=forced)
            )
            if action == EXCLUDE:
                if path_texts:
                    yield snapshot()
                step_stack.pop()
                return
            path_texts.append(best_text)
            node_stack.append(node_id)
            neighbors = [
                edge
                for edge in graph.out_edges(node_id)
                if (edge.from_node, edge.to_node) not in edges_on_branch
            ]
            # Primary key: how well the child's instructions match the
            # query; edge task similarity breaks ties. Terminal helper
            # nodes aggregate every task and would otherwise outrank the
            # branch that actually mentions the queried entities.
            neighbors.sort(
                key=lambda edge: (
                    -scores.affinity(edge.to_node),
                    -scores.edge_score(edge),
                    edge.to_node,
                )
            )
            if len(path_texts) >= config.max_path_len or not neighbors:
                yield snapshot()
            else:
                yielded = False
                for edge in neighbors:
                    if budget["left"] <= 0:
                        break
                    key = (edge.from_node, edge.to_node)
                    edges_on_branch.add(key)
                    for candidate in visit(edge.to_node, edge):
                        yielded = True
                        yield candidate
                    edges_on_branch.discard(key)
                if not yielded:
                    # every branch was cut off by the visit budget
                    yield snapshot()
            path_texts.pop()
            node_stack.pop()
            step_stack.pop()

        try:
            yield from visit(start, None)
        finally:
            # ``visit`` holds itself through its closure; unlinking it frees
            # the walk, and the graph and index it reads, without waiting
            # for the cyclic garbage collector.
            del visit

    # Fair collection: each start contributes in rotation, so one deep
    # subtree cannot consume the whole candidate budget.
    candidates: list[Candidate] = []
    seen_sequences: set[tuple[str, ...]] = set()
    walkers = [start_walks(start) for start in _start_nodes(scores, config.k)]
    active = deque(walkers)
    while active and len(candidates) < config.k and budget["left"] >= 0:
        walker = active.popleft()
        try:
            candidate = next(walker)
        except StopIteration:
            continue
        active.append(walker)
        key = candidate.path.instructions
        if key in seen_sequences:
            continue
        seen_sequences.add(key)
        candidates.append(candidate)
    return candidates
