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
    AGG_FIXED,
    AggregationState,
    MissingClientShareError,
    ParamMagnitudeError,
    finalize_global,
    share_model_params,
)
from fedchain.sharing import Dealer
from fedchain.simulation import ExperimentAborted, build_state, run_experiment, run_round

SCALE = 10**4
M63 = AGG_FIXED.modulus
TEMPLATE = nn.init_mlp(2, [], 2, seed=1)  # 6 parameters
PARAMS = TEMPLATE.param_count


def aggregate(models, nodes, seed, round_no=0):
    dealer = Dealer(seed, M63)
    agg = AggregationState(round_no, tuple(range(len(models))), nodes, models[0].param_count)
    for cid, model in enumerate(models):
        share_model_params(model, agg, dealer, client_id=cid, round_no=round_no)
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


@settings(max_examples=60, deadline=None)
@given(clients=st.integers(1, 12), nodes=st.integers(2, 25), params=st.integers(1, 6),
       seed=st.integers(0, 2**32), data=st.data())
def test_streamed_sums_equal_split_and_a_per_node_fold(clients, nodes, params, seed, data):
    # Oracle: a reference split from a second dealer on the same stream (the
    # n-1 mask rows in one draw, the closing share in Python integers), and
    # every node's shares folded in Python integers.
    secrets = [np.array(data.draw(st.lists(st.integers(0, M63.value - 1), min_size=params,
                                           max_size=params)), dtype=np.uint64)
               for _ in range(clients)]
    dealer, reference = Dealer(seed, M63), Dealer(seed, M63)
    agg = AggregationState(0, tuple(range(clients)), nodes, params)
    want = [[0] * params for _ in range(nodes)]
    for cid, secret in enumerate(secrets):
        closing = agg.add(cid, 0, secret, dealer)
        masks = reference.uniform((nodes - 1, params)).tolist()
        want_closing = [(int(x) - sum(column)) % M63.value
                        for x, column in zip(secret, zip(*masks))]
        assert closing.tolist() == want_closing
        for node, share in enumerate([*masks, want_closing]):
            want[node] = [(w + v) % M63.value for w, v in zip(want[node], share)]
    assert dealer.position == reference.position == clients * (nodes - 1) * params
    assert agg.node_partial_sums().tolist() == want


# ---------------------------------------------------------------------------
# The barrier: every refused client leaves the running sums and the dealer
# stream as they were.
# ---------------------------------------------------------------------------


@pytest.fixture
def barrier():
    dealer = Dealer(5, M63)
    agg = AggregationState(1, (0, 1, 2), 3, PARAMS)
    share_model_params(TEMPLATE, agg, dealer, client_id=0, round_no=1)
    return agg, dealer


def share(agg, dealer, client_id=1, round_no=1, model=TEMPLATE):
    return share_model_params(model, agg, dealer, client_id=client_id, round_no=round_no)


@pytest.mark.parametrize("kwargs, bits, error, match", [
    ({"round_no": 2}, 63, ValueError, "round"),
    ({"client_id": 7}, 63, ValueError, "not expected"),
    ({"client_id": 0}, 63, ValueError, "duplicate"),
    ({"model": nn.init_mlp(3, [], 2, seed=1)}, 63, ValueError, "length"),
    ({}, 32, ModulusMismatchError, r"mod 2\^32"),
], ids=["wrong_round", "unexpected_client", "duplicate", "length", "modulus"])
def test_rejected_add_leaves_sums_untouched(barrier, kwargs, bits, error, match):
    agg, _ = barrier
    dealer = Dealer(6, Modulus.power_of_two(bits))
    before = agg.sums.copy()
    with pytest.raises(error, match=match):
        share(agg, dealer, **kwargs)
    assert np.array_equal(agg.sums, before)
    assert agg.received == {0}
    assert dealer.position == 0


def test_partial_sums_stall_until_every_client_arrived(barrier):
    agg, dealer = barrier
    with pytest.raises(MissingClientShareError, match=r"missing clients \[1, 2\]"):
        agg.node_partial_sums()
    share(agg, dealer, client_id=2)
    with pytest.raises(MissingClientShareError, match=r"missing clients \[1\]"):
        agg.node_partial_sums()
    share(agg, dealer, client_id=1)
    got = finalize_global(agg.node_partial_sums(), 3, TEMPLATE).flat_params()
    assert got.tolist() == plaintext_average([TEMPLATE.flat_params()] * 3)


def test_withdrawn_client_leaves_the_barrier(barrier):
    agg, dealer = barrier
    agg.withdraw(2)
    share(agg, dealer, client_id=1)
    assert agg.ready and len(agg.node_partial_sums()) == 3
    with pytest.raises(ValueError, match="already contributed"):
        agg.withdraw(1)


def test_out_of_range_params_are_refused_before_any_mask_is_drawn(barrier):
    agg, dealer = barrier
    flat = TEMPLATE.flat_params()
    flat[3] = -MAX_PARAM_MAGNITUDE * 1.01
    position, before = dealer.position, agg.sums.copy()
    with pytest.raises(ParamMagnitudeError):
        share(agg, dealer, model=TEMPLATE.with_flat_params(flat))
    assert dealer.position == position  # no mask was drawn
    assert np.array_equal(agg.sums, before) and agg.received == {0}


def test_single_node_is_refused():
    with pytest.raises(ValueError, match="at least 2 nodes"):
        AggregationState(0, (0,), 1, PARAMS)


# ---------------------------------------------------------------------------
# Share-level golden values: a change to the mask stream or the node sums
# shows here even when the reconstructed average stays the same.  The global
# model's digest depends on neither the ring nor the mask stream: the average
# is exact in any ring with room for the sum.
# ---------------------------------------------------------------------------

GOLDEN_NODE_SUMS = [
    "5b039aa92f9bf1b4d788147c31cefe3ee6eeba75c5c968912f7b0ed87db153df",
    "6d514e3dc00fce2e28c6bacbf6906fa5c251b72ebdc927989e58fbc35da2db22",
    "5fcfc99128dd8fa3eca60d97461c00edb89df158f2d693cf1cdd853d71ba107d",
    "b70305707bd9a553970b440552711ae8ab5a1392dcadc4b447239149ebe1af9d",
    "93257bb08494f2efeac5056e390afd856ae0640b3ee61708f16b4515e99d5b0a",
    "84be8436cb51a249943219ba5f561ebee13b7e0ff58d341385edc609d2216fc1",
    "55a56afe4e0a553bb5e9e0d826fbf58b4339003cae43c9685e5c111af3cdc021",
    "68ceffad2cbd939b1cd2bc278e4df2658239de62d5a6b3f61e2effb0a6af9998",
    "e3496f03b75c219d7599dd1c4ad20d7cdce0a45c6954ef1ffe437b748fd78aa0",
    "d5fee5b12ca3619ceca4443662f920477875ae39c41bfcc51cd6fd83d4909c20",
    "41aed3a8f39a090bbe969fc6ebf49bbde9d23de4288399190b42a64ef92de1e9",
    "1b36b266230d3ac9dcbd69d6bbf7323dd1f091588504794457339579d94efec6",
    "f7f2dc8b3aa2698b23acac071945ac1ed959b221fcd20d3dfb1df9527539ac63",
    "246a30b6722451e91162c6f01927b6d98fabe87a6ec278da5a7dcc1da74c6898",
    "99950971a0922bc0c8c84feacccf098c15553742ee90b94282487b0081286b18",
    "812b4ed476712cacc9dd803d9a626fb98656251faddb2e8b4d873ea008e50818",
    "b6cb70669fa940ef42bf44aa40ed0a275a39cc0012e7340caafe38e471feb52f",
    "bd228643c9e1ca4d4da4b6da4b5a6d9299c808a40a06328842a728b3a48534a3",
    "8110f19ad93d17e5a6adaf681478724c8ec230910201606493c8f268e29c9edb",
    "a76ba3f9d3aa8e06a2002b0b695eeba5d01cf4489b8add53599e61d3c44c7ee4",
]
GOLDEN_CLIENT0_SHARES = "e5965dc695ced74d21e2bf8250a0889c3eeb27b40665852e9420ff5997832e82"
GOLDEN_GLOBAL = "78987ef7d6f8144b4467b1bdd310b28a9b26aa623909f04726b939a31b6ef516"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_node_partial_sums():
    models = [nn.init_mlp(16, [32], 4, seed=100 + c) for c in range(10)]
    # Client 0 alone: the node sums are its 20 shares.
    shares0 = aggregate(models[:1], 20, 2024, round_no=3)
    assert sha(shares0.tobytes()) == GOLDEN_CLIENT0_SHARES
    partials = aggregate(models, 20, 2024, round_no=3)
    assert [sha(row.tobytes()) for row in partials] == GOLDEN_NODE_SUMS
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
    summary = run_experiment(validate(HOSTILE), tmp_path)
    assert not summary["aborted"] and summary["rounds_completed"] == 2
    assert summary["malicious_clients"] == [2]
    for line in (tmp_path / "metrics.jsonl").read_text().splitlines():
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
