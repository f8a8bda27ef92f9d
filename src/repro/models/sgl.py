"""SGL: self-supervised graph learning with augmented graph views (Wu et al. 2021)."""

from __future__ import annotations

import numpy as np

from ..data.interactions import InteractionDataset
from ..data.sampling import BprBatch
from ..graph.augment import edge_dropout_view, node_dropout_view
from ..nn import Tensor, functional as F
from .base import GraphRecommender, Propagated

__all__ = ["SGL"]


class SGL(GraphRecommender):
    """LightGCN backbone plus an InfoNCE objective between two augmented views.

    Views are regenerated at the start of every epoch via
    :meth:`on_epoch_start`, matching the reference implementation's schedule.
    """

    name = "sgl"
    # Per-step randomness / data-dependent graph shapes: cannot be traced.
    trace_static = False

    def __init__(
        self,
        dataset: InteractionDataset,
        embedding_dim: int = 64,
        num_layers: int = 2,
        l2_weight: float = 1e-4,
        ssl_weight: float = 0.1,
        ssl_temperature: float = 0.2,
        drop_rate: float = 0.1,
        augmentation: str = "edge",
        seed: int = 0,
    ) -> None:
        super().__init__(dataset, embedding_dim, num_layers, l2_weight, seed)
        if augmentation not in {"edge", "node"}:
            raise ValueError("augmentation must be 'edge' or 'node'")
        self.ssl_weight = ssl_weight
        self.ssl_temperature = ssl_temperature
        self.drop_rate = drop_rate
        self.augmentation = augmentation
        self._view_adjacency = [self.adjacency, self.adjacency]
        self.on_epoch_start()

    def on_epoch_start(self) -> None:
        augment = edge_dropout_view if self.augmentation == "edge" else node_dropout_view
        self._view_adjacency = [
            augment(self.dataset, self.drop_rate, self.rng),
            augment(self.dataset, self.drop_rate, self.rng),
        ]

    def propagate_joint(self) -> Tensor:
        return self._mean_propagate(self.adjacency)

    def _ssl_loss(self, batch: BprBatch) -> Tensor:
        view_a = self._mean_propagate(self._view_adjacency[0])
        view_b = self._mean_propagate(self._view_adjacency[1])
        users_a, items_a = self._split(view_a)
        users_b, items_b = self._split(view_b)
        unique_users = np.unique(batch.users)
        unique_items = np.unique(batch.pos_items)
        user_loss = F.info_nce(
            users_a.take_rows(unique_users), users_b.take_rows(unique_users), self.ssl_temperature
        )
        item_loss = F.info_nce(
            items_a.take_rows(unique_items), items_b.take_rows(unique_items), self.ssl_temperature
        )
        return user_loss + item_loss

    def bpr_step(self, batch: BprBatch, propagated: Propagated | None = None) -> Tensor:
        loss = super().bpr_step(batch, propagated)
        if self.ssl_weight:
            loss = loss + self.ssl_weight * self._ssl_loss(batch)
        return loss
