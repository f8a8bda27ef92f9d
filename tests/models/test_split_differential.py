"""The sliced user/item split against a reference ``np.arange`` gather.

``GraphRecommender._split`` cuts the joint table into basic slices.  The
reference below is the fancy-index gather it replaced, kept here as the
oracle: the BPR loss and every parameter gradient must match it bit for bit,
on the eager tape and in a compiled replay.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.sampling import BprBatch
from repro.models import BPRMF, GCCF, LightGCN
from repro.nn import compile as nn_compile

BACKBONES = {
    "bpr-mf": lambda dataset: BPRMF(dataset, embedding_dim=8, seed=0),
    "lightgcn": lambda dataset: LightGCN(dataset, embedding_dim=8, num_layers=2, seed=0),
    "gccf": lambda dataset: GCCF(dataset, embedding_dim=8, num_layers=2, seed=0),
}


def _arange_propagated(model):
    """Reference split: rows of the joint table gathered by ``np.arange``."""
    joint = model.representations()
    users = joint.take_rows(np.arange(model.num_users))
    items = joint.take_rows(np.arange(model.num_users, model.num_users + model.num_items))
    return users, items


def _step_fn(model, reference: bool):
    def step_fn(params, inputs):
        batch = BprBatch(inputs["users"], inputs["pos_items"], inputs["neg_items"])
        return model.bpr_step(batch, _arange_propagated(model) if reference else None)

    return step_fn


def _eager(model, batch, reference: bool):
    params = list(model.parameters())
    for param in params:
        param.zero_grad()
    loss = model.bpr_step(batch, _arange_propagated(model) if reference else None)
    loss.backward()
    return loss.item(), [param.grad.copy() for param in params]


def _compiled(model, batch, reference: bool):
    params = list(model.parameters())
    inputs = {"users": batch.users, "pos_items": batch.pos_items, "neg_items": batch.neg_items}
    step = nn_compile(_step_fn(model, reference))
    step(params, inputs)  # trace, then replay
    loss = step(params, inputs)  # a second, pure replay
    assert step.stats.traces == 1 and step.stats.replays == 2
    return loss, [param.grad.copy() for param in params]


@pytest.mark.parametrize("name", sorted(BACKBONES))
@pytest.mark.parametrize("run", [_eager, _compiled], ids=["eager", "compiled"])
def test_sliced_split_matches_arange_gather_bitwise(name, run, tiny_dataset, bpr_batch):
    model = BACKBONES[name](tiny_dataset)
    loss, grads = run(model, bpr_batch, reference=False)
    ref_loss, ref_grads = run(model, bpr_batch, reference=True)
    assert loss == ref_loss
    assert len(grads) == len(ref_grads)
    for grad, ref_grad in zip(grads, ref_grads):
        np.testing.assert_array_equal(grad, ref_grad)


@pytest.mark.parametrize("name", sorted(BACKBONES))
def test_eager_and_compiled_split_agree_bitwise(name, tiny_dataset, bpr_batch):
    model = BACKBONES[name](tiny_dataset)
    loss, grads = _eager(model, bpr_batch, reference=False)
    replay_loss, replay_grads = _compiled(model, bpr_batch, reference=False)
    assert loss == replay_loss
    for grad, replay_grad in zip(grads, replay_grads):
        np.testing.assert_array_equal(grad, replay_grad)


def test_split_returns_views_of_the_joint_table(tiny_dataset):
    model = LightGCN(tiny_dataset, embedding_dim=8, num_layers=2, seed=0)
    joint = model.representations()
    users, items = model._split(joint)
    assert users.shape == (model.num_users, 8) and items.shape == (model.num_items, 8)
    assert np.shares_memory(users.data, joint.data) and np.shares_memory(items.data, joint.data)
    np.testing.assert_array_equal(np.concatenate([users.data, items.data]), joint.data)
