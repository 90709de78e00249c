import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedchain import nn, prg, secure_agg
from fedchain.config import validate
from fedchain.prg import keystream_into
from fedchain.ring import MAX_PARAM_MAGNITUDE
from fedchain.secure_agg import (
    AggregationState,
    MissingClientShareError,
    finalize_global,
    node_key,
    share_model_params,
    share_secret,
)
from fedchain.simulation import ExperimentAborted, build_state, run_experiment, run_round

SCALE = 10**4
M63 = 2**63
TEMPLATE = nn.init_mlp(2, [], 2, seed=1)  # 6 parameters
PARAMS = TEMPLATE.param_count


def partial_sums(agg):
    """Every node's partial sum, the yielded rows stacked into (nodes, params)."""
    return np.stack(list(agg.node_partial_sums()))


def aggregate(models, nodes, seed, round_no=0):
    """Partial sums of ``models``, client ``cid`` masking with round seed ``seed`` + cid."""
    agg = AggregationState(round_no, tuple(range(len(models))), nodes, models[0].param_count)
    for cid, model in enumerate(models):
        agg.add(cid, round_no, share_model_params(model, seed + cid, nodes))
    return partial_sums(agg)


def node_view(agg):
    """What the nodes hold: each key record and the last node's running sum."""
    return [list(keys) for keys in agg.node_keys], agg.closing_sum.copy()


def same_view(a, b):
    return a[0] == b[0] and np.array_equal(a[1], b[1])


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
    # Oracle: a reference split from each client's seed (row j the keystream
    # under node j's key, the closing share in Python integers), and every
    # node's shares folded in Python integers.
    secrets = [np.array(data.draw(st.lists(st.integers(0, M63 - 1), min_size=params,
                                           max_size=params)), dtype=np.uint64)
               for _ in range(clients)]
    agg = AggregationState(0, tuple(range(clients)), nodes, params)
    want = [[0] * params for _ in range(nodes)]
    for cid, secret in enumerate(secrets):
        keys, closing = share_secret(secret, seed + cid, nodes)
        assert keys == [node_key(seed + cid, node) for node in range(nodes - 1)]
        agg.add(cid, 0, (keys, closing))
        masks = [keystream_into(node_key(seed + cid, node),
                                np.empty(params, dtype="<u8")).tolist()
                 for node in range(nodes - 1)]
        want_closing = [(int(x) - sum(column)) % M63
                        for x, column in zip(secret, zip(*masks))]
        assert closing.tolist() == want_closing
        for node, share in enumerate([*masks, want_closing]):
            want[node] = [(w + v) % M63 for w, v in zip(want[node], share)]
    assert partial_sums(agg).tolist() == want


# node_key(2024, j) and the first four words of its keystream, as bytes.
# Cross-checked with OpenSSL's command line:
# `openssl enc -aes-128-ctr -K <key> -iv 0` over 32 zero bytes.
KNOWN_ROWS = [
    ("fd84b81af70e48d48e6e0b308d8a6744",
     "c99c5f98fefc262edf8e14daa395a57ccd41315bae9e2d78c956512513afd4d9"),
    ("d65e3907efa6defe16df2ea8c87b2bda",
     "b305f2428a7bc5663cbb354d7b3cd77b2b5c117014096bc1d540e4d21cb68f94"),
]


def test_node_rows_are_the_keystream_of_their_keys():
    # One client with a zero secret: node j < n-1 holds its raw keystream
    # row read mod 2^63, and the last node the closing share.
    agg = AggregationState(0, (0,), 3, 4)
    agg.add(0, 0, share_secret(np.zeros(4, dtype=np.uint64), 2024, 3))
    rows = partial_sums(agg)
    raws = [np.frombuffer(bytes.fromhex(words), dtype="<u8").tolist() for _, words in KNOWN_ROWS]
    for node, (key, _) in enumerate(KNOWN_ROWS):
        assert node_key(2024, node).hex() == key
        assert rows[node].tolist() == [w % M63 for w in raws[node]]
    assert rows[2].tolist() == [-(u + v) % M63 for u, v in zip(*raws)]


@settings(max_examples=30, deadline=None)
@given(nodes=st.integers(2, 8), seed=st.integers(0, 2**63 - 1),
       a=st.lists(st.integers(0, 2**63 - 1), min_size=3, max_size=3),
       b=st.lists(st.integers(0, 2**63 - 1), min_size=3, max_size=3))
def test_mask_rows_do_not_depend_on_the_secret(nodes, seed, a, b):
    sums = []
    for secret in (a, b):
        agg = AggregationState(0, (0,), nodes, 3)
        agg.add(0, 0, share_secret(np.array(secret, dtype=np.uint64), seed, nodes))
        sums.append(partial_sums(agg))
    assert np.array_equal(sums[0][:-1], sums[1][:-1])


# ---------------------------------------------------------------------------
# The barrier: every refused delivery leaves the nodes' keys and the running
# sum as they were, and no delivery expands a mask row.
# ---------------------------------------------------------------------------


@pytest.fixture
def barrier():
    agg = AggregationState(1, (0, 1, 2), 3, PARAMS)
    agg.add(0, 1, share_model_params(TEMPLATE, 5, 3))
    return agg


@pytest.fixture
def expansions(monkeypatch):
    """The keys of every mask row expanded from here on."""
    keys = []

    def counting(key, out):
        keys.append(key)
        return keystream_into(key, out)

    monkeypatch.setattr(secure_agg, "keystream_into", counting)
    return keys


def share(agg, client_id=1, round_no=1, model=TEMPLATE, nodes=3):
    """Share ``model`` as client ``client_id``, round seed 5 + client_id, and
    deliver it; return its closing share."""
    shares = share_model_params(model, 5 + client_id, nodes)
    agg.add(client_id, round_no, shares)
    return shares[1]


@pytest.mark.parametrize("kwargs, match", [
    ({"round_no": 2}, "round"),
    ({"client_id": 7}, "not expected"),
    ({"client_id": 0}, "duplicate"),
    ({"model": nn.init_mlp(3, [], 2, seed=1)}, "length"),
    ({"nodes": 4}, "3 node keys, expected 2"),
], ids=["wrong_round", "unexpected_client", "duplicate", "length", "key_count"])
def test_rejected_add_leaves_sums_untouched(barrier, kwargs, match):
    before = node_view(barrier)
    with pytest.raises(ValueError, match=match):
        share(barrier, **kwargs)
    assert same_view(node_view(barrier), before)
    assert barrier.received == {0}


def test_partial_sums_stall_until_every_client_arrived(barrier):
    with pytest.raises(MissingClientShareError, match=r"missing clients \[1, 2\]"):
        barrier.node_partial_sums()
    share(barrier, client_id=2)
    with pytest.raises(MissingClientShareError, match=r"missing clients \[1\]"):
        barrier.node_partial_sums()
    share(barrier, client_id=1)
    got = finalize_global(barrier.node_partial_sums(), 3, TEMPLATE).flat_params()
    assert got.tolist() == plaintext_average([TEMPLATE.flat_params()] * 3)


def test_withdrawn_client_leaves_the_barrier(barrier):
    barrier.withdraw(2)
    share(barrier, client_id=1)
    assert barrier.ready and len(partial_sums(barrier)) == 3
    with pytest.raises(ValueError, match="already contributed"):
        barrier.withdraw(1)


def test_single_node_is_refused():
    with pytest.raises(ValueError, match="at least 2 nodes"):
        AggregationState(0, (0,), 1, PARAMS)


def test_each_node_holds_its_clients_keys_and_the_last_their_closing_shares(expansions):
    # Two deliveries, one refused delivery and one withdrawal: node j < n-1
    # records one 16-byte key per delivered client, in arrival order, and the
    # last node the sum of the closing shares.  The refused and the withdrawn
    # client leave no key.  Each client expands its rows once, when it
    # shares; a delivery expands none, and at the barrier each node expands
    # the rows of the keys delivered to it.
    agg = AggregationState(1, (0, 1, 2, 3), 3, PARAMS)
    closing = [share(agg, client_id=2)]
    with pytest.raises(ValueError, match="round"):
        share(agg, client_id=1, round_no=2)
    agg.withdraw(3)
    closing.append(share(agg, client_id=0))
    agg.withdraw(1)
    assert agg.node_keys == [[node_key(7, j), node_key(5, j)] for j in range(2)]
    want = [sum(int(c[i]) for c in closing) % M63 for i in range(PARAMS)]
    assert (agg.closing_sum % np.uint64(M63)).tolist() == want
    shared = [node_key(seed, j) for seed in (7, 6, 5) for j in range(2)]
    assert expansions == shared
    rows = partial_sums(agg)
    assert expansions == shared + [node_key(7, 0), node_key(5, 0), node_key(7, 1), node_key(5, 1)]
    assert rows[-1].tolist() == want


def test_round_memory_does_not_grow_with_the_node_count():
    # Three clients of the 50,052-parameter agg-ledger MLP, shared and
    # finalized under tracemalloc: 15 more nodes cost their keys, well
    # under one more row of P words.
    models = [nn.init_mlp(64, [256, 128], 4, seed=c) for c in range(3)]
    params = models[0].param_count
    assert params == 50_052

    def peak(nodes):
        tracemalloc.start()
        try:
            agg = AggregationState(0, (0, 1, 2), nodes, params)
            for cid, model in enumerate(models):
                agg.add(cid, 0, share_model_params(model, 40 + cid, nodes))
            finalize_global(agg.node_partial_sums(), 3, models[0])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # allocations made once per process land here
    assert peak(20) <= peak(5) + params * 8


# ---------------------------------------------------------------------------
# Share-level golden values: a change to the mask stream or the node sums
# shows here even when the reconstructed average stays the same.  The global
# model's digest depends on neither the ring nor the mask stream: the average
# is exact in any ring with room for the sum.  The node sums and client 0's
# shares were re-recorded when each client began masking with raw keystream
# rows under per-node keys from its own seed, in place of one dealer stream
# per round; GOLDEN_GLOBAL did not move.
# ---------------------------------------------------------------------------

GOLDEN_NODE_SUMS = [
    "99a2ba1ff33160064dca6f811c6336cd4c540f64d4ff602a587e8ad1c5c7b949",
    "ac16659733e04ea2e70f0c4264aca98afa27c3a275a31907d30d24cca404934f",
    "568b1351de95f265c7bf731ac84b216d61f574cedf70b5a1bc67286d0d531414",
    "29223a02dd2fade2b9ee0ca4657fda84c7698c78d7db62524e9a09b9bbeef8b6",
    "69fecbb1a842d8401c3935a4b99371409f4eff2f833ef939b4c801abbcbcea45",
    "03e526e845845866c098a3b8a9f71187ab25a478a1bdb616dec5437ba6b60f69",
    "d65f6d5d470c104834878da82af71bf5a1435898a45d1215b921f324b100980a",
    "7535b913c7d7cbee92c37193b08d2aa8682486f6db71dab521f3c4400d07af39",
    "a3dbe99ad01e7735e57db80142694f34555db9385c37e3178bf472ba5c50103c",
    "5737761f90a87f05307208c1ea8071ccfffba294dd69d827e9dc4af597d2ad2c",
    "ace86b870779fdfe8110d351075802beecacb0eaec8dc2cd1538e013a84dfea6",
    "17f67460728e074497f93de36135e41f17bc209e1635c1b8b5723f5e6bcceac9",
    "cb78d303190edccb8d7c903029401281610d59a4079dbc7de89a39b75987e2a8",
    "4daa6231f402a09807c16fe86cad1be03b3cd3bcb3c0a02db8487130acd4a867",
    "75231534260e9d0752599b488ee108d9a2fca9933791d0c0f47cbfd9f3ee889a",
    "26ca155c68daf18ec36b26d95205bd876812dc572412ab4b03e1fbe6d60af371",
    "cc4fce8045794ec663ee3bd6da852ec6f1af8bbe7b4f3f7b3939f55b04ba9c4e",
    "0ef8f587fa09df1b2dace1dd26219896e0725ad660f58eab10483ae3c37709bf",
    "4e3debe0550b8d9f61bd406682136ab29451828bcec8675facd738bd09c068a6",
    "1987eef01c27be557dd0d61fe387358b71a85e12aa29efb62ecc9b49c9436e24",
]
GOLDEN_CLIENT0_SHARES = "fec0f9a7ed3aaf514fe41cf25dd655edafd957b3aefc074205e5ac284da74a16"
GOLDEN_GLOBAL = "78987ef7d6f8144b4467b1bdd310b28a9b26aa623909f04726b939a31b6ef516"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_node_partial_sums():
    models = [nn.init_mlp(16, [32], 4, seed=100 + c) for c in range(10)]
    # Client 0 alone: the partial sums are its 20 shares.
    shares0 = aggregate(models[:1], 20, 2024, round_no=3)
    assert sha(shares0.tobytes()) == GOLDEN_CLIENT0_SHARES
    partials = aggregate(models, 20, 2024, round_no=3)
    assert [sha(row.tobytes()) for row in partials] == GOLDEN_NODE_SUMS
    template = nn.init_mlp(16, [32], 4, seed=5)
    assert sha(finalize_global(partials, 10, template).flat_params().tobytes()) == GOLDEN_GLOBAL
    assert not prg.ZERO_SOURCE.any()  # every row read it; none wrote it


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
    for client in state.clients:
        client.malicious = True
    with pytest.raises(ExperimentAborted) as caught:
        run_round(state)
    metrics = caught.value.args[1]
    assert metrics.aborted and metrics.accepted_clients == []
