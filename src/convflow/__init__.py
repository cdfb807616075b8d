"""convflow: action-centric dialog embeddings and flow-graph extraction.

A numpy library covering the full pipeline at desk scale: the unified
dialog corpus format, supervised contrastive losses (hard and soft) with
analytically verified gradients, similarity-based evaluation metrics,
spherical clustering, and weighted action-transition graphs.

The package binds no names: each public name is imported from its own
module, e.g. `from convflow.corpus import parse_unified`.
"""
