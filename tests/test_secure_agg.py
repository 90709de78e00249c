import copy
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedchain import nn
from fedchain.config import validate
from fedchain.ring import MAX_PARAM_MAGNITUDE, Modulus, ModulusMismatchError
from fedchain.secure_agg import (
    AggregationState,
    MissingClientShareError,
    ParamMagnitudeError,
    VerifiedShare,
    finalize_global,
    share_model_params,
)
from fedchain.sharing import Dealer
from fedchain.simulation import ExperimentAborted, build_state, run_experiment, run_round

SCALE = 10**4
TEMPLATE = nn.init_mlp(2, [], 2, seed=1)  # 6 parameters
PARAMS = TEMPLATE.param_count


def aggregate(models, nodes, seed, round_no=0):
    dealer = Dealer(seed, Modulus.prime())
    agg = AggregationState(round_no, tuple(range(len(models))), nodes, models[0].param_count)
    for cid, model in enumerate(models):
        agg.add(share_model_params(model, nodes, dealer, client_id=cid, round_no=round_no))
    return agg.node_partial_sums()


def plaintext_average(flats):
    """Fixed-point integer average in Python ints, truncated toward zero."""
    out = []
    for column in zip(*flats):
        total = sum(int(v * SCALE) for v in column)
        quot = abs(total) // len(flats) * (1 if total >= 0 else -1)
        out.append(quot / SCALE)
    return out


param = st.floats(-MAX_PARAM_MAGNITUDE, MAX_PARAM_MAGNITUDE, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(flats=st.lists(st.lists(param, min_size=PARAMS, max_size=PARAMS), min_size=1, max_size=12),
       nodes=st.integers(2, 25), seed=st.integers(0, 2**32))
def test_finalize_equals_plaintext_fixed_point_average(flats, nodes, seed):
    models = [TEMPLATE.with_flat_params(np.array(f)) for f in flats]
    partials = aggregate(models, nodes, seed)
    got = finalize_global(partials, len(models), TEMPLATE).flat_params()
    assert got.tolist() == plaintext_average(flats)


# ---------------------------------------------------------------------------
# The barrier: every rejected bundle leaves the running sums as they were.
# ---------------------------------------------------------------------------


@pytest.fixture
def barrier():
    dealer = Dealer(5, Modulus.prime())
    agg = AggregationState(1, (0, 1, 2), 3, PARAMS)
    first = share_model_params(TEMPLATE, 3, dealer, client_id=0, round_no=1)
    agg.add(first)
    return agg, dealer, first


def bundle(dealer, client_id=1, round_no=1, nodes=3, model=TEMPLATE):
    return share_model_params(model, nodes, dealer, client_id=client_id, round_no=round_no)


def swapped(vs):
    return VerifiedShare(vs.client_id, vs.round, vs.node_shares[::-1])


def wrong_modulus(vs):
    bad = copy.copy(vs.node_shares[0])
    bad.modulus = Modulus.prime(11)
    return VerifiedShare(vs.client_id, vs.round, [bad] + vs.node_shares[1:])


@pytest.mark.parametrize("make, error, match", [
    (lambda d, first: bundle(d, round_no=2), ValueError, "round"),
    (lambda d, first: bundle(d, client_id=7), ValueError, "not expected"),
    (lambda d, first: first, ValueError, "duplicate"),
    (lambda d, first: bundle(d, nodes=4), ValueError, "node count"),
    (lambda d, first: bundle(d, model=nn.init_mlp(3, [], 2, seed=1)), ValueError, "length"),
    (lambda d, first: swapped(bundle(d)), ValueError, "addressed to party"),
    (lambda d, first: wrong_modulus(bundle(d)), ModulusMismatchError, "mod 11"),
], ids=["wrong_round", "unexpected_client", "duplicate", "node_count", "length",
        "party_order", "modulus"])
def test_rejected_add_leaves_sums_untouched(barrier, make, error, match):
    agg, dealer, first = barrier
    before = agg.sums.copy()
    with pytest.raises(error, match=match):
        agg.add(make(dealer, first))
    assert np.array_equal(agg.sums, before)
    assert agg.received == {0}


def test_partial_sums_stall_until_every_client_arrived(barrier):
    agg, dealer, _ = barrier
    with pytest.raises(MissingClientShareError, match=r"missing clients \[1, 2\]"):
        agg.node_partial_sums()
    agg.add(bundle(dealer, client_id=2))
    with pytest.raises(MissingClientShareError, match=r"missing clients \[1\]"):
        agg.node_partial_sums()
    agg.add(bundle(dealer, client_id=1))
    got = finalize_global(agg.node_partial_sums(), 3, TEMPLATE).flat_params()
    assert got.tolist() == plaintext_average([TEMPLATE.flat_params()] * 3)


def test_withdrawn_client_leaves_the_barrier(barrier):
    agg, dealer, _ = barrier
    agg.withdraw(2)
    agg.add(bundle(dealer, client_id=1))
    assert agg.ready and len(agg.node_partial_sums()) == 3
    with pytest.raises(ValueError, match="already contributed"):
        agg.withdraw(1)


def test_out_of_range_params_are_refused_before_any_mask_is_drawn():
    flat = TEMPLATE.flat_params()
    flat[3] = -MAX_PARAM_MAGNITUDE * 1.01
    dealer = Dealer(0, Modulus.prime())
    state = dealer.rng.bit_generator.state
    with pytest.raises(ParamMagnitudeError):
        share_model_params(TEMPLATE.with_flat_params(flat), 3, dealer)
    assert dealer.rng.bit_generator.state == state  # no mask was drawn


# ---------------------------------------------------------------------------
# Share-level golden values, recorded before the aggregation path streamed
# its inputs: a change to the mask stream or the node sums shows here even
# when the reconstructed average stays the same.
# ---------------------------------------------------------------------------

GOLDEN_NODE_SUMS = [
    "fc2366442b9bf8fc5615ac6ba68e8ccece313fe7bbd136a11dd4871e9a355dc7",
    "ffade07e683096684aac3c2f33b327e6d02de28b969078388952c2b03408ff30",
    "21ebdba49d2416e99a74d3e42bb233a6a81eaa0422c6a5d5f736f799e46f1459",
    "8d3de04b701a0bf04c6557a24825a6aa884303cd9a13f4b74f5d4692feecf221",
    "f89754233414fa9a7f1c9439553323a55063824e000810fc262ef5b309f8270a",
    "9f17a9b3eb5eb8f84bafcdd3bb5d48c93f6178ccf5fc0c12e8b6a6e06d16ee88",
    "21a53df6ecbf6e38a964c576cd3e745c08e4d129e84d837392820089dbc80599",
    "decc245d71073d294f3df6c108751b85312c0e26f68d125e67268bb9db4f8301",
    "1d25110cd443e197e17471f69c70f97471adb613cb5c7bf8a09255021c16b30d",
    "ec0f8f5b13b7a89f981e7fba9b37511b325f0e66dca80485fb9e0011a03739c4",
    "03240c35fbd4def527aa2148fa8c8a6930b403dafab2643ac28a325a5fd77489",
    "06da9cd5fa882180bdaa23d36fa571fd9a7164290db6b8e3c5487e75c0c6fe9a",
    "6ca8d6df4b93e54aa1a07ef67503e8c7503b699f2ffdcdb492972f055370f62c",
    "e98202023130e79075a914d99f6a4edd172ac671fc571137a0832a2b270b1b5c",
    "592866425e5a787a261a1ad47a1ab2e1ce78799dd746b23afdc4440f39bd0a63",
    "b213a19feb3560b9b5add8b7564c2ab95c3a84be2be9ec8af9de6072a4d9ac8c",
    "6585ed30e6e6c5fe77caa763adee47d636c7dffc5f870e1616f194546ff2e20b",
    "4a013a72cc6a9813b1414ac5e0f9ffc14bf0e3c2ed322bdb58046d2a19dde51b",
    "d8fe4a6b568ece6205bce366e43437ed2d240538da31f8e9434e5961e4744ec9",
    "3f1aeecf0232ae12bbe79b9e5e7ac3284b255ec0bc49ae90586f4198d1ad75a9",
]
GOLDEN_CLIENT0_BUNDLE = "09e6c517e6954e3e2892cc6b45ddfbf7805a78c02bf36b52ca6d0eff67b330d1"
GOLDEN_GLOBAL = "78987ef7d6f8144b4467b1bdd310b28a9b26aa623909f04726b939a31b6ef516"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_node_partial_sums():
    models = [nn.init_mlp(16, [32], 4, seed=100 + c) for c in range(10)]
    bundle0 = share_model_params(models[0], 20, Dealer(2024, Modulus.prime()), round_no=3)
    assert sha(b"".join(s.values.tobytes() for s in bundle0.node_shares)) == GOLDEN_CLIENT0_BUNDLE
    partials = aggregate(models, 20, 2024, round_no=3)
    assert [sha(p.values.tobytes()) for p in partials] == GOLDEN_NODE_SUMS
    template = nn.init_mlp(16, [32], 4, seed=5)
    assert sha(finalize_global(partials, 10, template).flat_params().tobytes()) == GOLDEN_GLOBAL


# ---------------------------------------------------------------------------
# A client scaling its parameters past the aggregation range is left out of
# the round instead of crashing it (verifier off, so nothing screens it).
# ---------------------------------------------------------------------------

HOSTILE = {
    "data": {"kind": "synthetic", "classes": 4, "dims": 8, "per_class": 40,
             "separation": 4.0, "clients": 3, "eval_count": 20, "verified_count": 4},
    "model": {"kind": "mlp", "hidden": [8]},
    "train": {"learning_rate": 0.05, "epochs_per_round": 1, "batch_size": 16,
              "rounds": 2, "optimizer": "sgd"},
    "attack": {"malicious_fraction": 0.34, "source_class": 0, "target_class": 1,
               "flip_fraction": 1.0, "scale_factor": 1e7},
    "verifier": {"enabled": False},
    "aggregation": {"nodes": 3},
    "ledger": {"difficulty": 1},
    "seeds": {"master": 3},
}


def test_hostile_client_is_left_out_of_the_sum(tmp_path):
    # The plaintext debug average applies the same range check.
    for debug in (False, True):
        out = tmp_path / str(debug)
        summary = run_experiment(validate(HOSTILE), out, plaintext_debug=debug)
        assert not summary["aborted"] and summary["rounds_completed"] == 2
        assert summary["malicious_clients"] == [2]
        for line in (out / "metrics.jsonl").read_text().splitlines():
            assert json.loads(line)["accepted_clients"] == [0, 1]


def test_round_aborts_when_no_client_is_within_range():
    state = build_state(validate(HOSTILE))
    attack = next(c.attack for c in state.clients if c.malicious)
    for client in state.clients:
        client.malicious, client.attack = True, attack
    with pytest.raises(ExperimentAborted) as caught:
        run_round(state)
    metrics = caught.value.args[1]
    assert metrics.aborted and metrics.accepted_clients == []
