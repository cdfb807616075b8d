"""convflow: action-centric dialog embeddings and flow-graph extraction.

A numpy library covering the full pipeline at desk scale: the unified
dialog corpus format, supervised contrastive losses (hard and soft) with
analytically verified gradients, similarity-based evaluation metrics,
spherical clustering, and weighted action-transition graphs.
"""

from .corpus import (
    ActionLabel,
    ActMappingTable,
    AnnotatedUtterance,
    UnifiedDialog,
    action_of,
    builtin_table,
    parse_unified,
    serialize_unified,
    standardize_act,
)
from .embedding import (
    EmbeddingStore,
    fetch_remote,
    l2_normalize,
    load_embeddings,
    save_embeddings,
)
from .contrastive import (
    ContrastiveBatch,
    ContrastiveHead,
    LabelTable,
    Temperatures,
    ToyEncoder,
    grad_loss,
    soft_loss,
    soft_targets,
    sup_loss,
    train_toy,
)
from .evaluation import (
    EvalReport,
    LabeledEmbeddings,
    anisotropy,
    evaluate,
    intra_inter_anisotropy,
    ndcg_ranking,
    prototype_classify,
)
from .cluster import Clustering, Dendrogram, agglomerative, cut, kmeans, representative
from .flowgraph import (
    FlowGraph,
    GraphDiff,
    Trajectory,
    build_graph,
    export_dot,
    graph_size_diff,
    label_clusters_llm,
    prune,
    trajectories_gold,
    trajectories_induced,
)

__version__ = "0.1.0"
