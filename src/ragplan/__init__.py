"""Instruction-graph retrieval and meta-reinforcement-learned path
selection for planner prompting."""

__version__ = "0.1.0"

from .corpus import InstructionPath, MetricKind, Question, TaskCorpus, score
from .embedding import EmbedderConfig, EmbeddingVector, cosine, embed_text
from .graph import (
    InstructionGraph,
    build_graph,
    extend_graph,
    graph_stats,
    knn_nearest,
    load_graph,
    save_graph,
)
from .meta import AgentBundle, MetaConfig, fewshot_adapt, meta_test, meta_train
from .policy import PolicyParams, RlConfig, traverse
from .encoder import EncoderParams, select_path
from .world import SyntheticWorldSpec, gen_world

__all__ = [
    "AgentBundle",
    "EmbedderConfig",
    "EmbeddingVector",
    "EncoderParams",
    "InstructionGraph",
    "InstructionPath",
    "MetaConfig",
    "MetricKind",
    "PolicyParams",
    "Question",
    "RlConfig",
    "SyntheticWorldSpec",
    "TaskCorpus",
    "build_graph",
    "cosine",
    "embed_text",
    "extend_graph",
    "fewshot_adapt",
    "gen_world",
    "graph_stats",
    "knn_nearest",
    "load_graph",
    "meta_test",
    "meta_train",
    "save_graph",
    "score",
    "select_path",
    "traverse",
]
