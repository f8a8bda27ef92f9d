"""One backbone propagation per training step, shared by both loss terms.

``AlignedRecommender`` builds the backbone's propagation once on the tape and
hands it to the BPR term and to the alignment term.  The traced step must
therefore hold one propagation's worth of sparse matmuls, and the shared
objective must equal the two terms computed apart.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.align import KAR, AlignedRecommender, DaRec, DaRecConfig, RLMRecContrastive, RLMRecGenerative
from repro.models import LightGCN
from repro.nn import compile as nn_compile

TRADE_OFF = 0.1

MODULES = {
    "darec": lambda backbone, semantic: DaRec(
        backbone,
        semantic,
        DaRecConfig(shared_dim=12, hidden_dim=12, num_centers=3, sample_size=48, seed=0),
    ),
    "rlmrec-con": lambda backbone, semantic: RLMRecContrastive(backbone, semantic, hidden_dim=16, seed=0),
    "rlmrec-gen": lambda backbone, semantic: RLMRecGenerative(backbone, semantic, hidden_dim=16, seed=0),
    "kar": lambda backbone, semantic: KAR(backbone, semantic, hidden_dim=16, seed=0),
}


def _model(kind, dataset, semantic, num_layers=2) -> AlignedRecommender:
    backbone = LightGCN(dataset, embedding_dim=16, num_layers=num_layers, seed=0)
    return AlignedRecommender(backbone, MODULES[kind](backbone, semantic), trade_off=TRADE_OFF)


@pytest.mark.parametrize("num_layers", [1, 2, 3])
def test_traced_darec_step_propagates_once(num_layers, tiny_dataset, tiny_semantic, bpr_batch):
    model = _model("darec", tiny_dataset, tiny_semantic, num_layers=num_layers)
    params = list(model.parameters())
    inputs = model.make_step_inputs(bpr_batch)
    step = nn_compile(model.build_step_fn())
    step(params, inputs)
    program = step.program_for(params, inputs)
    ops = [node.op for node in program.nodes]
    assert ops.count("sparse_matmul") == num_layers
    static_gathers = [
        node for node in program.nodes if node.op == "take_rows" and node.ctx[0] == "static"
    ]
    assert static_gathers == []


@pytest.mark.parametrize("kind", sorted(MODULES))
def test_joint_loss_equals_separate_terms(kind, tiny_dataset, tiny_semantic, bpr_batch):
    # Twin models on identical seeds consume identical random streams: one
    # shares a propagation, the other lets each term propagate for itself.
    shared = _model(kind, tiny_dataset, tiny_semantic)
    apart = _model(kind, tiny_dataset, tiny_semantic)
    joint = shared.loss(bpr_batch)
    separate = apart.backbone.bpr_step(bpr_batch) + TRADE_OFF * apart.alignment.alignment_loss(bpr_batch)
    assert joint.item() == separate.item()
    joint.backward()
    separate.backward()
    shared_params = dict(shared.named_parameters())
    apart_params = dict(apart.named_parameters())
    assert shared_params.keys() == apart_params.keys()
    for name, param in shared_params.items():
        expected = apart_params[name].grad
        assert param.grad is not None and expected is not None, name
        # Sharing reorders the float sums of the backward pass (one adjoint
        # matmul over the summed gradients), so allow rounding, nothing more.
        scale = float(np.max(np.abs(expected)))
        assert float(np.max(np.abs(param.grad - expected))) <= 1e-12 * scale, name
