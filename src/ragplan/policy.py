"""Include/exclude traversal policy over the instruction graph.

The policy is a two-layer network (20 tanh units, 2-way softmax) acting
on a three-component state: the best instruction similarity at the
visited node, the best task-centroid similarity on the incoming edge,
and the best question similarity within that task. Depth-first
traversal from the most query-similar nodes emits up to K candidate
instruction paths; training is warm-start binary cross-entropy followed
by episodic policy gradients on the end-to-end answer score.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .corpus import InstructionPath, TaskCorpus
from .embedding import cosine  # noqa: F401  bench/tracer.py wraps ragplan.policy.cosine
from .embedding import embed_text  # noqa: F401  bench/tracer.py wraps ragplan.policy.embed_text
from .errors import ConfigError, DataError, MalformedFileError, NotFoundError
from .graph import EdgeSet, InstructionGraph, QueryScores
from .serialize import (
    check_minimums,
    floats_to_hex,
    hex_to_floats,
    read_versioned,
    write_versioned,
)

HIDDEN_UNITS = 20
STATE_SIZE = 3
POLICY_SHAPES = {"w1": (HIDDEN_UNITS, STATE_SIZE), "b1": (HIDDEN_UNITS,),
                 "w2": (2, HIDDEN_UNITS), "b2": (2,)}
PROB_FLOOR = 1e-7
POLICY_KIND = "policy-params"

INCLUDE = 1
EXCLUDE = 0


def _rule_no_lookup_before_search(candidate: str, path_so_far: list[str]) -> bool:
    """Disallow a lookup-style step before any search-style step."""
    operator = candidate.split("[", 1)[0].strip().lower()
    if operator != "lookup":
        return True
    return any(text.split("[", 1)[0].strip().lower() == "search" for text in path_so_far)


RULE_HOOKS = {
    "no-lookup-before-search": _rule_no_lookup_before_search,
}


@dataclass(frozen=True)
class RlConfig:
    gamma: float = 0.99
    k: int = 3
    max_path_len: int = 16
    max_nodes_visited: int = 256
    rule_hooks: tuple[str, ...] = ()
    use_baseline: bool = True
    baseline_window: int = 64

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"K must be >= 1, got {self.k}")
        check_minimums(self, max_path_len=1, max_nodes_visited=1, baseline_window=1)
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")
        for name in self.rule_hooks:
            if name not in RULE_HOOKS:
                raise ConfigError(f"unknown rule hook {name!r}")


@dataclass
class PolicyParams:
    w1: np.ndarray  # (20, 3)
    b1: np.ndarray  # (20,)
    w2: np.ndarray  # (2, 20)
    b2: np.ndarray  # (2,)

    def to_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.w1.ravel(), self.b1.ravel(), self.w2.ravel(), self.b2.ravel()]
        )

    @classmethod
    def from_vector(cls, vector: np.ndarray) -> "PolicyParams":
        w1_end = HIDDEN_UNITS * STATE_SIZE
        b1_end = w1_end + HIDDEN_UNITS
        w2_end = b1_end + 2 * HIDDEN_UNITS
        if vector.size != w2_end + 2:
            raise ConfigError(f"policy vector has {vector.size} entries, expected {w2_end + 2}")
        flat = np.array(vector, dtype=np.float64)
        return cls(
            w1=flat[:w1_end].reshape(HIDDEN_UNITS, STATE_SIZE),
            b1=flat[w1_end:b1_end],
            w2=flat[b1_end:w2_end].reshape(2, HIDDEN_UNITS),
            b2=flat[w2_end:],
        )

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())


def init_policy_params(seed: int = 0, scale: float = 0.1) -> PolicyParams:
    rng = np.random.default_rng(seed)
    return PolicyParams(
        w1=scale * rng.standard_normal((HIDDEN_UNITS, STATE_SIZE)),
        b1=np.zeros(HIDDEN_UNITS),
        w2=scale * rng.standard_normal((2, HIDDEN_UNITS)),
        b2=np.zeros(2),
    )


@dataclass(frozen=True)
class EpisodeStep:
    state: np.ndarray  # (3,)
    action: int
    log_prob: float
    forced: bool = False


@dataclass
class Episode:
    steps: list[EpisodeStep] = field(default_factory=list)
    reward: float = 0.0


@dataclass(frozen=True)
class Candidate:
    path: InstructionPath
    episode: Episode
    node_sequence: tuple[int, ...]


def build_state(
    graph: InstructionGraph,
    query: str | QueryScores,
    node_id: int,
    in_edge: EdgeSet | None,
) -> np.ndarray:
    """Three similarities: best instruction, best task centroid, best
    question within the best task. Without an incoming edge the last two
    components are zero.

    ``query`` is a text or, to score a query once for many states, its
    ``QueryScores`` against the graph's index, which keeps each state row
    it makes. The row is read-only.
    """
    if node_id not in graph.nodes:
        raise NotFoundError(f"node {node_id} not in graph")
    scores = query if isinstance(query, QueryScores) else QueryScores(graph.index(), query)
    return scores.state(node_id, in_edge)


def _forward(params: PolicyParams, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations (n, 20) and (include, exclude) probabilities
    (n, 2) of n state rows."""
    hidden = np.tanh(states @ params.w1.T + params.b1)
    logits = hidden @ params.w2.T + params.b2
    # Traversal runs this on one row per visited node; calling the ufunc
    # reductions directly skips the ndarray-method wrappers' overhead.
    probs = np.exp(logits - np.maximum.reduce(logits, axis=1, keepdims=True))
    probs /= np.add.reduce(probs, axis=1, keepdims=True)
    return hidden, probs


def policy_forward(params: PolicyParams, state: np.ndarray) -> tuple[float, float]:
    """(p_include, p_exclude) for a state; always a proper distribution."""
    _check_finite_params(params)
    return _checked_forward(params, state)


def _check_finite_params(params: PolicyParams) -> None:
    if not np.isfinite(params.to_vector()).all():
        raise DataError("policy_forward over non-finite inputs")


def _checked_forward(params: PolicyParams, state: np.ndarray) -> tuple[float, float]:
    """``policy_forward`` for weights already checked finite."""
    state = np.asarray(state, dtype=np.float64)
    if not np.isfinite(state).all():
        raise DataError("policy_forward over non-finite inputs")
    _, probs = _forward(params, state[None, :])
    return float(probs[0, 0]), float(probs[0, 1])


def _backward(
    params: PolicyParams, states: np.ndarray, hidden: np.ndarray, logit_deltas: np.ndarray
) -> np.ndarray:
    """Flat gradient from dL/dlogits rows, reusing the forward activations."""
    d_pre = (logit_deltas @ params.w2) * (1.0 - hidden * hidden)
    return PolicyParams(
        d_pre.T @ states, d_pre.sum(axis=0), logit_deltas.T @ hidden, logit_deltas.sum(axis=0)
    ).to_vector()


def bce_loss_and_grad(
    params: PolicyParams, states: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy on p_include, with its analytic gradient."""
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if states.shape[0] != labels.size:
        raise DataError("state/label count mismatch")
    count = labels.size
    if count == 0:
        raise DataError("bce loss over an empty batch")
    hidden, probs = _forward(params, states)
    p_include = np.clip(probs[:, 0], PROB_FLOOR, 1.0 - PROB_FLOOR)
    losses = -(labels * np.log(p_include) + (1.0 - labels) * np.log(1.0 - p_include))
    deltas = (probs - np.stack([labels, 1.0 - labels], axis=1)) / count
    return float(np.mean(losses)), _backward(params, states, hidden, deltas)


def episode_returns(episode: Episode, gamma: float) -> np.ndarray:
    """Terminal reward discounted backward: G_t = gamma^(T-1-t) * r."""
    horizon = len(episode.steps)
    return np.array(
        [episode.reward * gamma ** (horizon - 1 - t) for t in range(horizon)], dtype=np.float64
    )


def pg_loss_and_grad(
    params: PolicyParams, episode: Episode, gamma: float, baseline_value: float = 0.0
) -> tuple[float, np.ndarray]:
    """REINFORCE loss sum(-G_t * log pi(a_t | s_t)) and its gradient.

    Steps whose action was forced by a rule hook carry no gradient.
    """
    if not episode.steps:
        raise DataError("pg update over an empty episode")
    steps = episode.steps
    returns = episode_returns(episode, gamma) - baseline_value
    weights = np.where([step.forced for step in steps], 0.0, returns)
    states = np.stack([step.state for step in steps])
    hidden, probs = _forward(params, states)
    rows = np.arange(len(steps))
    # softmax output order is (include, exclude)
    taken = np.array([0 if step.action == INCLUDE else 1 for step in steps])
    action_probs = np.clip(probs[rows, taken], PROB_FLOOR, 1.0)
    loss = -(weights * np.log(action_probs)).sum()
    deltas = probs.copy()
    deltas[rows, taken] -= 1.0
    return float(loss), _backward(params, states, hidden, weights[:, None] * deltas)


def _start_nodes(scores: QueryScores, k: int) -> list[int]:
    """Nodes of the k most query-similar instructions, most similar first.

    A node's first place in the instruction ranking (by similarity, then
    node id, then text) is its affinity's place, so nodes rank by
    affinity, then node id.
    """
    order = np.argsort(-scores.node_affinity, kind="stable")[:k]
    return [scores.index.node_ids[pos] for pos in order]


def traverse(
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

    Each node's best instruction and ordered out-edges, and each state's
    policy probabilities, are worked out once per traversal; rule hooks,
    the branch-edge filter, the budget and sampling stay per visit.
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
    scores = QueryScores(graph.index(), query_text)
    hooks = [RULE_HOOKS[name] for name in config.rule_hooks]
    budget = {"left": config.max_nodes_visited}
    best_texts: dict[int, str] = {}
    orders: dict[int, list[EdgeSet]] = {}
    probs: dict[bytes, tuple[float, float]] = {}

    def best_text_of(node_id: int) -> str:
        text = best_texts.get(node_id)
        if text is None:
            text = best_texts[node_id] = scores.best_text(node_id)
        return text

    def ordered_out_edges(node_id: int) -> list[EdgeSet]:
        """Primary key: how well the child's instructions match the query;
        edge task similarity breaks ties. Terminal helper nodes aggregate
        every task and would otherwise outrank the branch that actually
        mentions the queried entities. Children are distinct, so the order
        is total and filtering after sorting keeps it."""
        order = orders.get(node_id)
        if order is None:
            order = orders[node_id] = sorted(
                graph.out_edges(node_id),
                key=lambda edge: (
                    -scores.affinity(edge.to_node),
                    -scores.edge_score(edge),
                    edge.to_node,
                ),
            )
        return order

    def policy_probs(state: np.ndarray) -> tuple[float, float]:
        key = state.tobytes()
        pair = probs.get(key)
        if pair is None:
            pair = probs[key] = _checked_forward(params, state)
        return pair

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
            state = build_state(graph, scores, node_id, in_edge)
            best_text = best_text_of(node_id)
            forced = any(not hook(best_text, path_texts) for hook in hooks)
            if forced:
                action, log_prob = EXCLUDE, 0.0
            else:
                p_include, p_exclude = policy_probs(state)
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
                for edge in ordered_out_edges(node_id)
                if (edge.from_node, edge.to_node) not in edges_on_branch
            ]
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
    while active and len(candidates) < config.k:
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


@dataclass(frozen=True)
class WarmstartExample:
    state: np.ndarray
    label: int
    node_id: int
    task_id: str
    question_id: str


def _path_node_sequence(graph: InstructionGraph, path: InstructionPath) -> list[int] | None:
    """Locate the stored node of each path instruction; None when absent."""
    text_to_node = graph.index().text_nodes
    sequence = []
    previous = None
    for text in path.instructions:
        homes = text_to_node.get(text)
        if not homes:
            return None
        chosen = next((h for h in homes if h != previous), homes[0])
        sequence.append(chosen)
        previous = chosen
    return sequence


def make_warmstart_dataset(
    graph: InstructionGraph,
    support: TaskCorpus,
    samples_per_question: int = 8,
    rng_seed: int = 0,
) -> list[WarmstartExample]:
    """Labeled states from support questions.

    Nodes on a question's gold path yield label 1 with the path's true
    incoming edge; sampled off-path nodes yield label 0. Sampling is
    balanced per question where the graph allows it.
    """
    rng = np.random.default_rng(rng_seed)
    examples: list[WarmstartExample] = []
    all_nodes = sorted(graph.nodes)
    if not all_nodes:
        return examples
    for question in support.iter_questions():
        gold = question.gold_path
        if gold is None:
            continue
        query = QueryScores(graph.index(), question.text)
        sequence = _path_node_sequence(graph, gold)
        if sequence is None:
            continue
        positives: list[tuple[int, EdgeSet | None]] = []
        for idx, node_id in enumerate(sequence):
            in_edge = None
            if idx > 0:
                in_edge = graph.edges.get((sequence[idx - 1], node_id))
            positives.append((node_id, in_edge))
        on_path = set(sequence)
        negatives_pool = [n for n in all_nodes if n not in on_path]
        positive_cap = max(1, samples_per_question // 2)
        if len(positives) > positive_cap:
            picked = rng.choice(len(positives), size=positive_cap, replace=False)
            positives = [positives[i] for i in sorted(picked)]
        n_neg = min(len(negatives_pool), samples_per_question - len(positives), len(positives))
        chosen_negatives = []
        if negatives_pool and n_neg > 0:
            picked = rng.choice(len(negatives_pool), size=n_neg, replace=False)
            chosen_negatives = [negatives_pool[i] for i in sorted(picked)]
        for node_id, in_edge in positives:
            examples.append(
                WarmstartExample(
                    state=build_state(graph, query, node_id, in_edge),
                    label=1,
                    node_id=node_id,
                    task_id=question.task_id,
                    question_id=question.question_id,
                )
            )
        for node_id in chosen_negatives:
            in_edges = graph.in_edges(node_id)
            in_edge = None
            if in_edges:
                in_edge = in_edges[int(rng.integers(len(in_edges)))]
            examples.append(
                WarmstartExample(
                    state=build_state(graph, query, node_id, in_edge),
                    label=0,
                    node_id=node_id,
                    task_id=question.task_id,
                    question_id=question.question_id,
                )
            )
    return examples


def save_policy(params: PolicyParams, destination) -> None:
    write_versioned(
        destination,
        POLICY_KIND,
        {
            "shapes": {
                "w1": list(params.w1.shape),
                "b1": list(params.b1.shape),
                "w2": list(params.w2.shape),
                "b2": list(params.b2.shape),
            },
            "data": {
                "w1": floats_to_hex(params.w1.ravel()),
                "b1": floats_to_hex(params.b1.ravel()),
                "w2": floats_to_hex(params.w2.ravel()),
                "b2": floats_to_hex(params.b2.ravel()),
            },
        },
    )


def load_policy(source) -> PolicyParams:
    doc = read_versioned(source, POLICY_KIND)
    try:
        shapes = doc["shapes"]
        data = doc["data"]
        arrays = {}
        for name, shape in POLICY_SHAPES.items():
            if shapes[name] != list(shape):
                raise ValueError(f"{name} has shape {shapes[name]}, expected {list(shape)}")
            arrays[name] = hex_to_floats(data[name], int(np.prod(shape))).reshape(shape)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFileError(f"{source}: malformed policy file: {exc}") from exc
    if not all(np.isfinite(values).all() for values in arrays.values()):
        raise MalformedFileError(f"{source}: policy file holds a non-finite value")
    return PolicyParams(**arrays)
