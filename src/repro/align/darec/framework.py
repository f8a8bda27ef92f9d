"""DaRec: the disentangled alignment framework (paper Section III, Alg. 1).

One :meth:`DaRec.alignment_loss` call implements one iteration of Algorithm 1:

1. sub-sample N̂ joint user/item instances;
2. disentangle ``E_C`` and ``E_L`` into shared and specific components (Eq. 1);
3. compute the orthogonality (Eq. 2) and uniformity (Eq. 3) regularisers;
4. compute the global structure alignment on the shared components (Eq. 4-5);
5. run K-Means on both shared spaces, adaptively match the preference centres
   (Eq. 7-8) and compute the local structure alignment (Eq. 9-10);
6. return ``L_or + L_uni + L_glo + L_loc`` (the trade-off λ with the backbone
   loss is applied by :class:`repro.align.base.AlignedRecommender`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...cluster import kmeans
from ...data.sampling import BprBatch, sample_instances
from ...llm.provider import SemanticEmbeddings
from ...models.base import BaseRecommender, Propagated
from ...nn import Tensor, as_tensor, no_grad
from ..base import AlignmentModule
from .disentangle import DisentangledProjectors, DisentangledRepresentations
from .losses import (
    global_structure_loss,
    local_structure_loss,
    orthogonality_loss,
    uniformity_loss,
)
from .matching import match_centers

__all__ = ["DaRecConfig", "DaRec"]


@dataclass
class DaRecConfig:
    """Hyper-parameters of the DaRec alignment framework.

    Defaults follow the paper: K in the sweet-spot range [4, 8], λ handled by
    the composite model (0.1), and every loss term enabled with unit weight.
    ``sample_size`` is the paper's N̂ (4096 at paper scale; smaller here because
    the synthetic benchmarks are smaller).
    """

    shared_dim: int = 64
    specific_dim: int | None = None
    hidden_dim: int = 64
    num_centers: int = 4
    sample_size: int = 256
    kmeans_iterations: int = 15
    matching: str = "adaptive"
    orthogonal_weight: float = 1.0
    uniformity_weight: float = 1.0
    global_weight: float = 1.0
    local_weight: float = 1.0
    uniformity_target: str = "specific"
    seed: int = 0
    loss_weights: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_centers <= 0:
            raise ValueError("num_centers must be positive")
        if self.sample_size <= 0:
            raise ValueError("sample_size must be positive")
        if self.uniformity_target not in {"specific", "all"}:
            raise ValueError("uniformity_target must be 'specific' or 'all'")
        for key in self.loss_weights:
            if key not in {"orthogonal", "uniformity", "global", "local"}:
                raise KeyError(f"unknown loss weight '{key}'")

    def weight(self, term: str) -> float:
        defaults = {
            "orthogonal": self.orthogonal_weight,
            "uniformity": self.uniformity_weight,
            "global": self.global_weight,
            "local": self.local_weight,
        }
        return float(self.loss_weights.get(term, defaults[term]))

    def without(self, *terms: str) -> "DaRecConfig":
        """Return a copy with the given loss terms disabled (ablation helper)."""
        weights = dict(self.loss_weights)
        for term in terms:
            if term not in {"orthogonal", "uniformity", "global", "local"}:
                raise KeyError(f"unknown loss term '{term}'")
            weights[term] = 0.0
        return DaRecConfig(
            shared_dim=self.shared_dim,
            specific_dim=self.specific_dim,
            hidden_dim=self.hidden_dim,
            num_centers=self.num_centers,
            sample_size=self.sample_size,
            kmeans_iterations=self.kmeans_iterations,
            matching=self.matching,
            orthogonal_weight=self.orthogonal_weight,
            uniformity_weight=self.uniformity_weight,
            global_weight=self.global_weight,
            local_weight=self.local_weight,
            uniformity_target=self.uniformity_target,
            seed=self.seed,
            loss_weights=weights,
        )


class DaRec(AlignmentModule):
    """Disentangled alignment of a CF backbone with LLM semantic embeddings."""

    name = "darec"
    # The impure parts of one step (node sub-sampling, K-Means, centre
    # matching) are hoisted into prepare_step(); the remaining loss is a
    # fixed-shape pure function of (parameters, prepared inputs), so the whole
    # joint step can be traced by repro.nn.compile.
    supports_compiled_step = True

    def __init__(
        self,
        backbone: BaseRecommender,
        semantic: SemanticEmbeddings,
        config: DaRecConfig | None = None,
    ) -> None:
        super().__init__(backbone, semantic)
        self.config = config or DaRecConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self.projectors = DisentangledProjectors(
            collab_dim=backbone.output_dim,
            llm_dim=semantic.dim,
            shared_dim=self.config.shared_dim,
            specific_dim=self.config.specific_dim,
            hidden_dim=self.config.hidden_dim,
            seed=self.config.seed,
        )
        # A constant on the tape: compiled replays re-read it by reference.
        self._semantic_tensor = Tensor(self.semantic_matrix())

    # ------------------------------------------------------------------ #
    # Disentanglement plumbing
    # ------------------------------------------------------------------ #
    def _sample_nodes(self) -> np.ndarray:
        total = self.backbone.num_users + self.backbone.num_items
        return sample_instances(total, self.config.sample_size, self._rng)

    def disentangle(self, nodes: np.ndarray | None = None) -> DisentangledRepresentations:
        """Disentangled representations of the selected joint nodes (on the tape)."""
        if nodes is None:
            nodes = self._sample_nodes()
        collaborative = self.backbone.representations().take_rows(nodes)
        semantic = Tensor(self.semantic_matrix()[nodes])
        return self.projectors(collaborative, semantic)

    def shared_representations(self, nodes: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Frozen (NumPy) shared representations, used for analysis and Fig. 6."""
        with no_grad():
            reps = self.disentangle(nodes)
            return reps.collab_shared.data.copy(), reps.llm_shared.data.copy()

    # ------------------------------------------------------------------ #
    # Loss terms
    # ------------------------------------------------------------------ #
    def _preference_centers(self, reps: DisentangledRepresentations) -> tuple[Tensor, Tensor]:
        """Differentiable matched preference centres of both shared spaces.

        K-Means runs on detached data to obtain cluster memberships; the centres
        fed to the local loss are then re-computed on the tape as the mean of
        their members so gradients reach the shared encoders.  The greedy
        matching of Eq. (8) is likewise decided on detached centres.
        """
        k = self.config.num_centers
        collab_data = reps.collab_shared.data
        llm_data = reps.llm_shared.data
        collab_result = kmeans(
            collab_data, k, max_iterations=self.config.kmeans_iterations, seed=int(self._rng.integers(1 << 31))
        )
        llm_result = kmeans(
            llm_data, k, max_iterations=self.config.kmeans_iterations, seed=int(self._rng.integers(1 << 31))
        )
        collab_centers = _differentiable_centers(reps.collab_shared, collab_result.labels, collab_result.centers, k)
        llm_centers = _differentiable_centers(reps.llm_shared, llm_result.labels, llm_result.centers, k)
        collab_order, llm_order = match_centers(
            collab_centers.data, llm_centers.data, strategy=self.config.matching
        )
        return collab_centers.take_rows(collab_order), llm_centers.take_rows(llm_order)

    def loss_components(self, batch: BprBatch | None = None) -> dict[str, Tensor]:
        """All four DaRec loss terms for one sub-sample (keys match the paper)."""
        config = self.config
        nodes = self._sample_nodes()
        reps = self.disentangle(nodes)
        components: dict[str, Tensor] = {}
        if config.weight("orthogonal"):
            components["orthogonal"] = orthogonality_loss(
                reps.llm_specific, reps.llm_shared
            ) + orthogonality_loss(reps.collab_specific, reps.collab_shared)
        if config.weight("uniformity"):
            if config.uniformity_target == "specific":
                components["uniformity"] = uniformity_loss(reps.collab_specific, reps.llm_specific)
            else:
                components["uniformity"] = uniformity_loss(
                    reps.concatenated("collab"), reps.concatenated("llm")
                )
        if config.weight("global"):
            components["global"] = global_structure_loss(reps.collab_shared, reps.llm_shared)
        if config.weight("local"):
            collab_centers, llm_centers = self._preference_centers(reps)
            components["local"] = local_structure_loss(collab_centers, llm_centers)
        return components

    def alignment_loss(self, batch: BprBatch, propagated: Propagated | None = None) -> Tensor:
        # Route the eager path through the same impure/pure split the compiled
        # path uses, so eager and replayed training walk one numeric path and
        # stay bit-identical (``loss_components`` remains available for
        # per-term ablation inspection).
        prepared = self.prepare_step(batch)
        return self.pure_alignment_loss(batch, prepared, propagated)

    # ------------------------------------------------------------------ #
    # Compiled execution (repro.nn.compile): impure/pure split
    # ------------------------------------------------------------------ #
    def prepare_step(self, batch: BprBatch) -> dict[str, np.ndarray]:
        """Hoist the step's impure work out of the traced program.

        Draws the N̂-node sub-sample and — when the local term is active —
        runs K-Means on *detached* shared representations, then encodes the
        resulting (matched) cluster structure as two constant matrices per
        side: an **assignment matrix** ``M`` (``k × N̂``, row ``c`` holding
        ``1/|C_c|`` on the members of cluster ``c``) and a **fallback matrix**
        ``F`` (``k × d``, the frozen K-Means centre for empty clusters, zero
        otherwise).  The traced loss then recovers differentiable centres as
        ``M @ shared + F``.  The RNG consumption order (sample, then one seed
        per K-Means) matches :meth:`loss_components` exactly, so compiled and
        legacy training walk the same random stream.
        """
        nodes = self._sample_nodes()
        prepared: dict[str, np.ndarray] = {"darec_nodes": nodes}
        if not self.config.weight("local"):
            return prepared
        k = self.config.num_centers
        with no_grad():
            reps = self.disentangle(nodes)
            collab_data = reps.collab_shared.data
            llm_data = reps.llm_shared.data
            collab_result = kmeans(
                collab_data, k, max_iterations=self.config.kmeans_iterations, seed=int(self._rng.integers(1 << 31))
            )
            llm_result = kmeans(
                llm_data, k, max_iterations=self.config.kmeans_iterations, seed=int(self._rng.integers(1 << 31))
            )
            collab_assign, collab_fallback = _assignment_matrices(
                collab_result.labels, collab_result.centers, k
            )
            llm_assign, llm_fallback = _assignment_matrices(llm_result.labels, llm_result.centers, k)
            # Match on the same centre values the traced loss will produce.
            collab_centers = collab_assign @ collab_data + collab_fallback
            llm_centers = llm_assign @ llm_data + llm_fallback
            collab_order, llm_order = match_centers(
                collab_centers, llm_centers, strategy=self.config.matching
            )
        prepared["darec_collab_assign"] = collab_assign[collab_order]
        prepared["darec_collab_fallback"] = collab_fallback[collab_order]
        prepared["darec_llm_assign"] = llm_assign[llm_order]
        prepared["darec_llm_fallback"] = llm_fallback[llm_order]
        return prepared

    def pure_alignment_loss(
        self, batch: BprBatch, prepared: dict, propagated: Propagated | None = None
    ) -> Tensor:
        """Trace-safe DaRec objective; all step-varying data comes via ``prepared``.

        Mathematically identical to :meth:`alignment_loss` — the per-cluster
        centres are computed as an assignment-matrix product instead of
        per-cluster gathered means, which reorders a handful of float
        additions but nothing else.
        """
        config = self.config
        nodes = prepared["darec_nodes"]
        collaborative = self.collaborative(propagated).take_rows(nodes)
        semantic = self._semantic_tensor.take_rows(nodes)
        reps = self.projectors(collaborative, semantic)
        total: Tensor | None = None

        def accumulate(term: str, value: Tensor) -> None:
            nonlocal total
            weighted = value * config.weight(term)
            total = weighted if total is None else total + weighted

        if config.weight("orthogonal"):
            accumulate(
                "orthogonal",
                orthogonality_loss(reps.llm_specific, reps.llm_shared)
                + orthogonality_loss(reps.collab_specific, reps.collab_shared),
            )
        if config.weight("uniformity"):
            if config.uniformity_target == "specific":
                accumulate("uniformity", uniformity_loss(reps.collab_specific, reps.llm_specific))
            else:
                accumulate(
                    "uniformity",
                    uniformity_loss(reps.concatenated("collab"), reps.concatenated("llm")),
                )
        if config.weight("global"):
            accumulate("global", global_structure_loss(reps.collab_shared, reps.llm_shared))
        if config.weight("local"):
            collab_centers = as_tensor(prepared["darec_collab_assign"]) @ reps.collab_shared + as_tensor(
                prepared["darec_collab_fallback"]
            )
            llm_centers = as_tensor(prepared["darec_llm_assign"]) @ reps.llm_shared + as_tensor(
                prepared["darec_llm_fallback"]
            )
            accumulate("local", local_structure_loss(collab_centers, llm_centers))
        return total if total is not None else Tensor(0.0)


def _differentiable_centers(
    shared: Tensor, labels: np.ndarray, fallback_centers: np.ndarray, k: int
) -> Tensor:
    """Mean of each cluster's member rows, computed on the autograd tape."""
    rows = []
    for cluster in range(k):
        members = np.where(labels == cluster)[0]
        if len(members) == 0:
            rows.append(Tensor(fallback_centers[cluster]).reshape(1, -1))
        else:
            rows.append(shared.take_rows(members).mean(axis=0, keepdims=True))
    return Tensor.concat(rows, axis=0)


def _assignment_matrices(
    labels: np.ndarray, fallback_centers: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster structure as constant matrices for the compiled local loss.

    ``assign[c]`` holds ``1/|C_c|`` on cluster ``c``'s members, so
    ``assign @ shared`` is the per-cluster mean; ``fallback[c]`` is the frozen
    K-Means centre when cluster ``c`` is empty (zero otherwise), making
    ``assign @ shared + fallback`` the fixed-shape analogue of
    :func:`_differentiable_centers`.
    """
    count = len(labels)
    assign = np.zeros((k, count))
    fallback = np.zeros((k, fallback_centers.shape[1]))
    for cluster in range(k):
        members = np.where(labels == cluster)[0]
        if len(members):
            assign[cluster, members] = 1.0 / len(members)
        else:
            fallback[cluster] = fallback_centers[cluster]
    return assign, fallback
