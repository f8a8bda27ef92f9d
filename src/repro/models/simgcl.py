"""SimGCL: contrastive learning with uniform noise perturbation (Yu et al. 2022)."""

from __future__ import annotations

import numpy as np

from ..data.interactions import InteractionDataset
from ..data.sampling import BprBatch
from ..nn import Tensor, functional as F, sparse_dense_matmul
from .base import GraphRecommender, Propagated

__all__ = ["SimGCL"]


class SimGCL(GraphRecommender):
    """LightGCN propagation whose contrastive views add signed uniform noise.

    SimGCL showed that the graph augmentations of SGL are unnecessary: adding
    small rotation-like noise to the propagated embeddings at every layer and
    contrasting the two noisy forward passes is simpler and at least as good.
    """

    name = "simgcl"
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
        noise_magnitude: float = 0.1,
        seed: int = 0,
    ) -> None:
        super().__init__(dataset, embedding_dim, num_layers, l2_weight, seed)
        self.ssl_weight = ssl_weight
        self.ssl_temperature = ssl_temperature
        self.noise_magnitude = noise_magnitude

    def _propagate(self, perturb: bool) -> Tensor:
        joint = self._joint_embeddings()
        layers = []
        current = joint
        for _ in range(self.num_layers):
            current = sparse_dense_matmul(self.adjacency, current)
            if perturb:
                noise = self.rng.random(current.shape)
                noise = np.sign(current.data) * self.noise_magnitude * (
                    noise / np.maximum(np.linalg.norm(noise, axis=1, keepdims=True), 1e-12)
                )
                current = current + Tensor(noise)
            layers.append(current)
        if not layers:
            layers = [joint]
        stacked = layers[0]
        for layer in layers[1:]:
            stacked = stacked + layer
        return stacked * (1.0 / len(layers))

    def propagate_joint(self) -> Tensor:
        return self._propagate(perturb=False)

    def _ssl_loss(self, batch: BprBatch) -> Tensor:
        view_a = self._propagate(perturb=True)
        view_b = self._propagate(perturb=True)
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
