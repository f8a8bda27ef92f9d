"""LightGCN: linear propagation with layer-averaged embeddings (He et al. 2020)."""

from __future__ import annotations

from ..data.interactions import InteractionDataset
from ..nn import Tensor
from .base import GraphRecommender

__all__ = ["LightGCN"]


class LightGCN(GraphRecommender):
    """Simplified GCN for recommendation: no transforms, no non-linearity.

    The final representation is the mean of the embeddings produced at every
    propagation depth (including layer zero).
    """

    name = "lightgcn"

    def __init__(
        self,
        dataset: InteractionDataset,
        embedding_dim: int = 64,
        num_layers: int = 2,
        l2_weight: float = 1e-4,
        seed: int = 0,
    ) -> None:
        super().__init__(dataset, embedding_dim, num_layers, l2_weight, seed)

    def propagate_joint(self) -> Tensor:
        return self._mean_propagate(self.adjacency)
