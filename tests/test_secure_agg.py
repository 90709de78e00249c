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
    AGG_FIXED,
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
M63 = AGG_FIXED.modulus
TEMPLATE = nn.init_mlp(2, [], 2, seed=1)  # 6 parameters
PARAMS = TEMPLATE.param_count


def aggregate(models, nodes, seed, round_no=0):
    dealer = Dealer(seed, M63)
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
    dealer = Dealer(5, M63)
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
    bad.modulus = Modulus.power_of_two(32)
    return VerifiedShare(vs.client_id, vs.round, [bad] + vs.node_shares[1:])


@pytest.mark.parametrize("make, error, match", [
    (lambda d, first: bundle(d, round_no=2), ValueError, "round"),
    (lambda d, first: bundle(d, client_id=7), ValueError, "not expected"),
    (lambda d, first: first, ValueError, "duplicate"),
    (lambda d, first: bundle(d, nodes=4), ValueError, "node count"),
    (lambda d, first: bundle(d, model=nn.init_mlp(3, [], 2, seed=1)), ValueError, "length"),
    (lambda d, first: swapped(bundle(d)), ValueError, "addressed to party"),
    (lambda d, first: wrong_modulus(bundle(d)), ModulusMismatchError, r"mod 2\^32"),
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
    dealer = Dealer(0, M63)
    state = dealer.rng.bit_generator.state
    with pytest.raises(ParamMagnitudeError):
        share_model_params(TEMPLATE.with_flat_params(flat), 3, dealer)
    assert dealer.rng.bit_generator.state == state  # no mask was drawn


# ---------------------------------------------------------------------------
# Share-level golden values: a change to the mask stream or the node sums
# shows here even when the reconstructed average stays the same.  The global
# model's digest does not depend on the ring: the average is exact in any
# ring with room for the sum.
# ---------------------------------------------------------------------------

GOLDEN_NODE_SUMS = [
    "8846c41d17d9cbfbb1731b4e598d5429de692c639a9414b4528b44a5003cc84c",
    "db2e8769b0d18027f32efde19f6290363ccd457480972d5001317e65d5b0c89d",
    "8b2515078c69081d26143185b8aac88cd96b29ca679c2129b2bde1baf22e0d50",
    "e3ac56ae6756b8685f209d09e79fa6fce1966e4e647cb8adbd05283488d902ce",
    "77cea65f256b3c3f25ca013c9da12d6841c00e5717f0d2119ebd66362816825f",
    "1430113c9258078bd74e101c0fcb704b09241ddb00c506c4bbbd95e73f11eb07",
    "32fb2c3bcd67714f313d18950c2333c060034b659c204299012912ad5eea491e",
    "fbf6bffe153d5223964f40bdcee4fcb11c2832bc246a72f3f5f780adf1a91972",
    "b2145cef413274c1fd44dd668076fd5dd6d1210ef890b1237c18aab984c92df9",
    "e43534ae33561a40a1789e94615a64c95cfac5b0b63f1793637b37a591028985",
    "1d4f08b2cc8dfa3bf64085cf2cec8033fed59799a89714c9d673752997a831ea",
    "3f97a99ca345edf8b76007bc35432ac7c3775bb5d5e26d6ed01937aa3b784518",
    "8d06891b9cda5b8ade86fd3e1f3904dd9bda7ca07aa40e6d7d9155e8c1f2d55f",
    "b125c34e735a6314de5295a655b4b8780ec444fe6c8aa2e788ca10dbcce4d05b",
    "e016565794e22003ed73b62449987767e7d11c2340334693953a79952cb18bf5",
    "e444178e01a3856b84408af64a856b0cb105cc06cf0f818eb698efabaacec82e",
    "7af17f0501a0640b73c2b9cf73301b1cf42a8762c1cc99e7d6121cc14ce60ddf",
    "e3ff1ae16ee7c86450c5b851e53afec70a42a5dd063fa0d54d1f8fc2272e4f9a",
    "999d17e228138e782b271ce24c6fc8e8a6325272b6f2ad752897af85b58940e5",
    "2a6ce265efc330a474378ee5ce07c4ee60abba91042cce54007d421c223bbd31",
]
GOLDEN_CLIENT0_BUNDLE = "77571bfdaa32c05caa7a08de1b47f70faafabe9ac96cb1f14968586930302832"
GOLDEN_GLOBAL = "78987ef7d6f8144b4467b1bdd310b28a9b26aa623909f04726b939a31b6ef516"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_node_partial_sums():
    models = [nn.init_mlp(16, [32], 4, seed=100 + c) for c in range(10)]
    bundle0 = share_model_params(models[0], 20, Dealer(2024, M63), round_no=3)
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
