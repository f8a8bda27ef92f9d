"""DCCF: disentangled contrastive collaborative filtering (Ren et al. 2023).

DCCF learns a small set of latent *intent prototypes* shared by all users (and
all items).  Each node's propagated embedding is softly assigned to the
prototypes, and an intent-aware view (the prototype reconstruction) is
contrasted against the plain propagated view.  This adaptive, parameter-level
augmentation replaces the random graph perturbations of SGL.
"""

from __future__ import annotations

import numpy as np

from ..data.interactions import InteractionDataset
from ..data.sampling import BprBatch
from ..nn import Parameter, Tensor, functional as F, init
from .base import GraphRecommender, Propagated

__all__ = ["DCCF"]


class DCCF(GraphRecommender):
    name = "dccf"
    # Per-step randomness / data-dependent graph shapes: cannot be traced.
    trace_static = False

    def __init__(
        self,
        dataset: InteractionDataset,
        embedding_dim: int = 64,
        num_layers: int = 2,
        num_intents: int = 8,
        l2_weight: float = 1e-4,
        ssl_weight: float = 0.1,
        ssl_temperature: float = 0.2,
        seed: int = 0,
    ) -> None:
        super().__init__(dataset, embedding_dim, num_layers, l2_weight, seed)
        if num_intents <= 0:
            raise ValueError("num_intents must be positive")
        self.num_intents = num_intents
        self.ssl_weight = ssl_weight
        self.ssl_temperature = ssl_temperature
        self.user_intents = Parameter(
            init.xavier_uniform((num_intents, embedding_dim), self.rng), name="user_intents"
        )
        self.item_intents = Parameter(
            init.xavier_uniform((num_intents, embedding_dim), self.rng), name="item_intents"
        )

    def _propagated(self) -> Tensor:
        """The plain graph view: LightGCN propagation over the full graph."""
        return self._mean_propagate(self.adjacency)

    def _intent_view(self, joint: Tensor) -> Tensor:
        """Reconstruct every node from the intent prototypes it attends to."""
        users, items = self._split(joint)
        user_attention = F.softmax(users @ self.user_intents.T, axis=1)
        item_attention = F.softmax(items @ self.item_intents.T, axis=1)
        user_view = user_attention @ self.user_intents
        item_view = item_attention @ self.item_intents
        return Tensor.concat([user_view, item_view], axis=0)

    def propagate_joint(self) -> Tensor:
        joint = self._propagated()
        # The ranking representation blends the graph view with the intent view,
        # which is where the disentangled semantics enter the final embedding.
        return joint + 0.5 * self._intent_view(joint)

    def _ssl_loss(self, batch: BprBatch) -> Tensor:
        joint = self._propagated()
        intent = self._intent_view(joint)
        users_g, items_g = self._split(joint)
        users_i, items_i = self._split(intent)
        unique_users = np.unique(batch.users)
        unique_items = np.unique(batch.pos_items)
        user_loss = F.info_nce(
            users_g.take_rows(unique_users), users_i.take_rows(unique_users), self.ssl_temperature
        )
        item_loss = F.info_nce(
            items_g.take_rows(unique_items), items_i.take_rows(unique_items), self.ssl_temperature
        )
        return user_loss + item_loss

    def bpr_step(self, batch: BprBatch, propagated: Propagated | None = None) -> Tensor:
        loss = super().bpr_step(batch, propagated)
        if self.ssl_weight:
            loss = loss + self.ssl_weight * self._ssl_loss(batch)
        return loss
