"""Common interface for collaborative filtering backbones.

Every backbone exposes the same minimal surface so that the plug-and-play
alignment frameworks (:mod:`repro.align`) can wrap any of them:

``propagate()``
    returns the full user and item embedding tables *on the autograd tape*
    after whatever message passing the backbone performs;
``bpr_step(batch, propagated=None)``
    returns the backbone's own training loss ``L_base`` (BPR + regularisation
    + any self-supervised terms) for one mini-batch, reading ``propagated``
    (a ``propagate()`` result the caller already holds) instead of
    propagating again when it is given;
``score_all()``
    returns the dense user × item score matrix used by the all-ranking
    evaluation protocol (gradient-free).
"""

from __future__ import annotations

import numpy as np

from ..data.interactions import InteractionDataset
from ..data.sampling import BprBatch
from ..graph.adjacency import build_normalized_adjacency
from ..nn import Embedding, Module, Tensor, functional as F, no_grad, sparse_dense_matmul

__all__ = ["BaseRecommender", "GraphRecommender", "Propagated"]

#: A backbone's ``propagate()`` result: (user table, item table) on the tape.
Propagated = tuple[Tensor, Tensor]


class BaseRecommender(Module):
    """Abstract recommender over an :class:`InteractionDataset`."""

    name = "base"

    #: Whether :meth:`bpr_step` computes the same dataflow graph on every call
    #: (given fixed batch shapes), so :func:`repro.nn.compile` can trace it
    #: once and replay it.  Backbones that draw per-step randomness or build
    #: data-dependent graph shapes (``np.unique`` on batch ids) set this to
    #: ``False`` and always train eagerly.
    trace_static = True

    def __init__(
        self,
        dataset: InteractionDataset,
        embedding_dim: int = 64,
        l2_weight: float = 1e-4,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        self.dataset = dataset
        self.num_users = dataset.num_users
        self.num_items = dataset.num_items
        self.embedding_dim = embedding_dim
        self.l2_weight = l2_weight
        self.rng = np.random.default_rng(seed)
        self.user_embedding = Embedding(self.num_users, embedding_dim, rng=self.rng)
        self.item_embedding = Embedding(self.num_items, embedding_dim, rng=self.rng)

    # ------------------------------------------------------------------ #
    # Interface
    # ------------------------------------------------------------------ #
    @property
    def output_dim(self) -> int:
        """Width of the representations returned by :meth:`propagate`."""
        return self.embedding_dim

    def propagate(self) -> tuple[Tensor, Tensor]:
        """Return (user table, item table) after message passing (on the tape)."""
        return self.user_embedding.all(), self.item_embedding.all()

    def representations(self) -> Tensor:
        """Concatenated user+item representations ``E_C`` used for alignment."""
        users, items = self.propagate()
        return Tensor.concat([users, items], axis=0)

    def on_epoch_start(self) -> None:
        """Hook for backbones that refresh augmentation views every epoch."""

    def bpr_step(self, batch: BprBatch, propagated: Propagated | None = None) -> Tensor:
        """Default ``L_base``: BPR ranking loss + L2 regularisation.

        ``propagated`` is this backbone's own :meth:`propagate` output when
        the caller has already computed it on the tape (the joint objective
        shares one propagation between this loss and the alignment term).
        """
        users, items = self.propagate() if propagated is None else propagated
        user_vec = users.take_rows(batch.users)
        pos_vec = items.take_rows(batch.pos_items)
        neg_vec = items.take_rows(batch.neg_items)
        pos_scores = (user_vec * pos_vec).sum(axis=1)
        neg_scores = (user_vec * neg_vec).sum(axis=1)
        loss = F.bpr_loss(pos_scores, neg_scores)
        if self.l2_weight:
            ego_user = self.user_embedding(batch.users)
            ego_pos = self.item_embedding(batch.pos_items)
            ego_neg = self.item_embedding(batch.neg_items)
            loss = loss + self.l2_weight * F.l2_regularization(ego_user, ego_pos, ego_neg)
        return loss

    def score_all(self) -> np.ndarray:
        """Dense score matrix for the all-ranking protocol (no gradients)."""
        with no_grad():
            users, items = self.propagate()
            return users.data @ items.data.T

    def embedding_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Raw (pre-propagation) embedding tables as NumPy arrays."""
        return self.user_embedding.weight.data, self.item_embedding.weight.data


class GraphRecommender(BaseRecommender):
    """Base class for backbones that propagate over the user-item graph."""

    def __init__(
        self,
        dataset: InteractionDataset,
        embedding_dim: int = 64,
        num_layers: int = 2,
        l2_weight: float = 1e-4,
        seed: int = 0,
    ) -> None:
        super().__init__(dataset, embedding_dim=embedding_dim, l2_weight=l2_weight, seed=seed)
        if num_layers < 0:
            raise ValueError("num_layers must be non-negative")
        self.num_layers = num_layers
        self.adjacency = build_normalized_adjacency(dataset)

    def propagate_joint(self) -> Tensor:
        """The joint table (user rows above item rows) after message passing."""
        raise NotImplementedError

    def propagate(self) -> tuple[Tensor, Tensor]:
        return self._split(self.propagate_joint())

    def representations(self) -> Tensor:
        return self.propagate_joint()

    def _joint_embeddings(self) -> Tensor:
        return Tensor.concat([self.user_embedding.all(), self.item_embedding.all()], axis=0)

    def _layer_outputs(self, adjacency) -> list[Tensor]:
        """The joint embeddings at every propagation depth, layer zero first."""
        layers = [self._joint_embeddings()]
        for _ in range(self.num_layers):
            layers.append(sparse_dense_matmul(adjacency, layers[-1]))
        return layers

    def _mean_propagate(self, adjacency) -> Tensor:
        """LightGCN propagation: the mean of the embeddings at every depth."""
        layers = self._layer_outputs(adjacency)
        stacked = layers[0]
        for layer in layers[1:]:
            stacked = stacked + layer
        return stacked * (1.0 / len(layers))

    def _split(self, joint: Tensor) -> tuple[Tensor, Tensor]:
        # Basic slices: views forward, a slice write backward.
        return joint[: self.num_users], joint[self.num_users :]
