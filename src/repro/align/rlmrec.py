"""RLMRec baselines: contrastive (Con) and generative (Gen) alignment.

RLMRec (Ren et al. 2023) aligns the collaborative representations with the LLM
semantic embeddings *directly* — exactly the strategy whose optimality
Theorem 1 of the DaRec paper questions.  Both variants are reproduced here as
the primary comparison baselines of Tables III and IV.
"""

from __future__ import annotations

import numpy as np

from ..data.sampling import BprBatch
from ..llm.provider import SemanticEmbeddings
from ..models.base import BaseRecommender, Propagated
from ..nn import MLP, Tensor, functional as F
from .base import AlignmentModule

__all__ = ["RLMRecContrastive", "RLMRecGenerative"]


class RLMRecContrastive(AlignmentModule):
    """RLMRec-Con: InfoNCE between CF representations and projected LLM embeddings."""

    name = "rlmrec-con"

    def __init__(
        self,
        backbone: BaseRecommender,
        semantic: SemanticEmbeddings,
        temperature: float = 0.2,
        hidden_dim: int = 64,
        seed: int = 0,
    ) -> None:
        super().__init__(backbone, semantic)
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.temperature = temperature
        rng = np.random.default_rng(seed)
        self.projector = MLP(
            in_features=semantic.dim,
            hidden_features=[hidden_dim],
            out_features=backbone.output_dim,
            activation="leaky_relu",
            rng=rng,
        )

    def alignment_loss(self, batch: BprBatch, propagated: Propagated | None = None) -> Tensor:
        nodes = self.batch_node_indices(batch)
        collaborative = self.collaborative(propagated).take_rows(nodes)
        semantic = Tensor(self.semantic_matrix()[nodes])
        projected = self.projector(semantic)
        return F.info_nce(collaborative, projected, self.temperature)


class RLMRecGenerative(AlignmentModule):
    """RLMRec-Gen: reconstruct masked CF representations from LLM embeddings.

    A random subset of the batch nodes is "masked" each step and the generator
    MLP must recover their collaborative embedding from the semantic one; the
    reconstruction error is the alignment loss.
    """

    name = "rlmrec-gen"

    def __init__(
        self,
        backbone: BaseRecommender,
        semantic: SemanticEmbeddings,
        mask_rate: float = 0.5,
        hidden_dim: int = 64,
        seed: int = 0,
    ) -> None:
        super().__init__(backbone, semantic)
        if not 0.0 < mask_rate <= 1.0:
            raise ValueError("mask_rate must be in (0, 1]")
        self.mask_rate = mask_rate
        self._rng = np.random.default_rng(seed)
        self.generator = MLP(
            in_features=semantic.dim,
            hidden_features=[hidden_dim],
            out_features=backbone.output_dim,
            activation="leaky_relu",
            rng=np.random.default_rng(seed),
        )

    def alignment_loss(self, batch: BprBatch, propagated: Propagated | None = None) -> Tensor:
        nodes = self.batch_node_indices(batch)
        mask = self._rng.random(len(nodes)) < self.mask_rate
        if not mask.any():
            mask[self._rng.integers(0, len(nodes))] = True
        masked_nodes = nodes[mask]
        collaborative = self.collaborative(propagated).take_rows(masked_nodes)
        semantic = Tensor(self.semantic_matrix()[masked_nodes])
        reconstructed = self.generator(semantic)
        return F.mse_loss(reconstructed, F.l2_normalize(collaborative))
