"""Front-end: model builders, MBCI partitioner, end-to-end executor."""

from repro.frontend.executor import STRATEGIES, E2EResult, compile_model
from repro.frontend.grouping import NodeClass, Rejection, classify_node
from repro.frontend.models import BERT_CONFIGS, BertConfig, bert_encoder, mlp_mixer, vit_encoder
from repro.frontend.partition import MBCISubgraph, Partition, partition_graph

__all__ = [
    "bert_encoder",
    "vit_encoder",
    "mlp_mixer",
    "BertConfig",
    "BERT_CONFIGS",
    "partition_graph",
    "Partition",
    "Rejection",
    "NodeClass",
    "classify_node",
    "MBCISubgraph",
    "compile_model",
    "E2EResult",
    "STRATEGIES",
]
