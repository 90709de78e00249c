"""End-to-end federated rounds: train, attack, verify, aggregate, commit.

A round runs one step per client who is not banned.  In a step the client
trains from the committed global model (a malicious client trains on its
label-flipped shard and may scale its parameters); the model is evaluated
for the per-client accuracy record and secret-shared once, for the nodes of
the aggregation barrier opened at the start of the round: n-1 node keys and
a closing share.  The verifier, when on, scores that very sharing by
encrypted inference against the trusted test split.  The step then decides
whether the sharing goes to the nodes: only if the model was accepted and
is within the aggregation range.  A node gets nothing from a client that
was rejected, whose training diverged or whose scale overflowed float64,
or that is outside the verifier's ring or the aggregation range; the
client is withdrawn instead.  The model is dropped when the step returns.

A step reads only what the round fixes before its first client (the global
model, the round, the threshold, the client's shards and the seeds) and
changes nothing, so steps can run in two processes at once.  With two or
more clients the round forks one client worker (a ``forked.Child``): it
runs the steps of the clients at odd positions and streams each outcome
back through a pipe as it finishes, while the parent runs the clients at
even positions.  The parent applies every outcome in client-id order: a
delivered sharing makes each node but the last record the client's 16-byte
key and the last add the closing share to its running sum, a withdrawal
takes the client out of the barrier (every barrier check runs in the
parent), and the per-client records and bans are kept.  So the artifacts
are those of one process running the clients in order, byte for byte.
Each process holds one local model at a time, and the parent at most one
outcome of the worker.  An exception in a worker step is sent back and
raised in the parent with its type and message (the worker's traceback
goes to standard error); a worker that dies
without an outcome raises RuntimeError naming the round and the client.
Either way, as for any failure in the parent, the worker is killed and
reaped before the error propagates.  After the last client each node
expands its clients' rows into its partial sum, and the partial sums are
averaged into the new global model.

Each commit is deferred by one round.  Round r hashes its global model's
bytes and leaves the block pending; the next round trains, verifies and
shares from that averaged model while the block is mined.  The round's
client worker mines it: after its clients' steps it runs the
``ledger.mine_block`` search on the chain it was forked with and sends the
nonce as its last frame.  The parent reads the nonce once its own work for
the round is done (its clients, the aggregation, and the new model's
digest and accuracies), rebuilds the block from its own pending fields
(``ledger.next_block``), and ``Chain.append`` checks it.  The parent mines
a block itself when no worker runs: in a round with fewer than two active
clients, and for the last round's block, which ``run_experiment`` commits
after the last round.  So only the last block's search stays on the
critical path.  Block r is appended, and model r is checked against it
(``ledger.verify_global`` on its bytes), before block r + 1 is pending and
before any other artifact is written, also when round r + 1 aborts.  With
an artifact directory the model's bytes go to ``models/`` as its block is
appended, so a block the chain refuses leaves no blob.  A round's
``mine_ms`` in ``timings.csv`` is the time the parent spent on the
previous round's block: the wait for the worker's nonce, or its own
search, and the append.  The last block's search is added to the last
round's row.  A search that raises in the worker reaches the caller as a
client step's exception does, and a worker that dies without the nonce
raises RuntimeError naming the round.

Every step is deterministic, so a round that fails (no model accepted, or
none within the aggregation range) aborts the experiment: run again, it
would fail the same way.

Every random choice derives from the master seed through stable hashing,
so a config replays to byte-identical metrics.  Wall-clock timings are
recorded but kept out of the deterministic metrics stream.  A round's
train, verify and aggregate times in ``timings.csv`` are sums over its
clients' steps in both processes, so with the worker running they can add
up to more than the round's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import forked, ledger, nn, secure_agg
from .config import ConfigError, ExperimentConfig
from .data import DataFormatError, Dataset, gen_synthetic, load_idx, partition
from .ring import HeadroomError
from .sharing import Dealer
from .secure_agg import AggregationState
from .secure_inference import Verdict, judge, threshold_for_round, verify_local_model


class ExperimentAborted(RuntimeError):
    """A round failed to commit; ``args[1]`` holds its RoundMetrics."""


def derive_seed(master: int, *tags) -> int:
    """Stable 63-bit seed from the master seed and a tag path."""
    h = hashlib.sha256(repr((master,) + tags).encode()).digest()
    return int.from_bytes(h[:8], "little") >> 1


@dataclass
class ClientProfile:
    client_id: int
    train_shard: Dataset  # the client's shard, label-flipped if malicious
    malicious: bool = False


def flip_labels(shard: Dataset, source: int, target: int, fraction: float,
                seed: int) -> Dataset:
    """Relabel the first ceil(fraction * count) source-class samples (under a
    seeded shuffle) as the target class; features are untouched.  A shard
    without a source-class sample is returned as it is."""
    if source == target:
        raise ValueError("source and target classes must differ")
    if not (0 <= source < shard.class_count and 0 <= target < shard.class_count):
        raise ValueError("source/target outside the class range")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("flip fraction must be in (0, 1]")
    src_idx = np.nonzero(shard.labels == source)[0]
    if src_idx.size == 0:
        return shard
    rng = np.random.Generator(np.random.PCG64(seed))
    shuffled = src_idx[rng.permutation(src_idx.size)]
    n_flip = int(np.ceil(fraction * src_idx.size))
    labels = shard.labels.copy()
    labels[shuffled[:n_flip]] = target
    return Dataset(shard.features, labels, shard.class_count)


def scale_params(model: nn.Model, gamma: float) -> nn.Model:
    """Multiply every parameter by the attacker's scaling factor.

    Raises nn.NonFiniteParameterError when a product overflows to inf,
    which no model can hold.
    """
    if gamma <= 0:
        raise ValueError("scaling factor must be positive")
    if gamma == 1.0:
        return model
    with np.errstate(over="ignore"):
        return model.with_flat_params(model.flat_params() * gamma)


def select_malicious(client_ids: list[int], fraction: float, seed: int) -> set[int]:
    """floor(fraction * count) clients drawn uniformly; fixed per experiment."""
    if not 0.0 <= fraction <= 0.5:
        raise ValueError("malicious fraction must be in [0, 0.5]")
    count = int(fraction * len(client_ids))
    if count == 0:
        return set()
    rng = np.random.Generator(np.random.PCG64(seed))
    return set(int(c) for c in rng.choice(client_ids, size=count, replace=False))


@dataclass
class RoundMetrics:
    round: int
    per_client_accuracy: dict
    verdicts: dict[int, Verdict]  # client id -> verdict, in client order
    accepted_clients: list[int]
    global_accuracy: float
    committed_digest: str
    aborted: bool = False
    timings_ms: dict = field(default_factory=dict)

    def metrics_json(self) -> str:
        """Deterministic per-round record (wall times deliberately excluded)."""
        return json.dumps(
            {
                "round": self.round,
                "per_client_accuracy": {str(k): v for k, v in self.per_client_accuracy.items()},
                "verdicts": [
                    {
                        "model_id": v.model_id,
                        "encrypted_accuracy": v.encrypted_accuracy,
                        "threshold": v.threshold,
                        "accepted": v.accepted,
                    }
                    for v in self.verdicts.values()
                ],
                "accepted_clients": self.accepted_clients,
                "global_accuracy": self.global_accuracy,
                "committed_digest": self.committed_digest,
                "aborted": self.aborted,
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class PendingBlock:
    """The block of a round's global model, not mined yet.

    The block follows the chain's head, which does not move until the
    block is appended.
    """

    round: int
    digest: bytes  # SHA-256 of the model's serialization

    @property
    def ref(self) -> str:
        return f"models/round_{self.round:04d}.bin"


@dataclass
class ExperimentState:
    config: ExperimentConfig
    clients: list[ClientProfile]
    eval_set: Dataset
    verified_set: Dataset
    global_model: nn.Model
    chain: ledger.Chain
    round: int = 0
    prev_verified_acc: float | None = None
    banned: set = field(default_factory=set)
    out_dir: Path | None = None  # committed models go to out_dir/models/ when set
    pending: PendingBlock | None = None  # global_model's block, not yet mined

    @property
    def master_seed(self) -> int:
        return self.config.seeds.master


def build_state(cfg: ExperimentConfig) -> ExperimentState:
    """Materialize datasets, client profiles and the initial global model."""
    master = cfg.seeds.master
    d = cfg.data
    if d.kind == "synthetic":
        total = gen_synthetic(d.classes, d.dims, d.per_class, derive_seed(master, "data"),
                              d.separation)
    else:
        try:
            total = load_idx(d.images_path, d.labels_path)
        except DataFormatError as exc:
            raise ConfigError(f"data.{exc.param}: {exc}") from exc
    # One feature layout for every split: flat for an MLP, (1, h, w) images
    # for a CNN fed 2-d features.
    feature_shape = total.features.shape[1:]
    if cfg.model.kind == "mlp":
        feature_shape = (int(np.prod(feature_shape)),)
    elif len(feature_shape) == 2:
        feature_shape = (1,) + feature_shape
    elif len(feature_shape) != 3:
        raise ConfigError(f"model.kind: cnn needs image-shaped features (h, w) or (c, h, w), "
                          f"and data.kind {d.kind} gives shape {feature_shape}")
    if cfg.model.kind == "cnn":
        (h, w), k, pool = feature_shape[1:], cfg.model.kernel, cfg.model.pool
        if k > min(h, w):
            raise ConfigError(f"model.kernel: {k} is larger than the {h}x{w} images")
        if (h - k + 1) % pool or (w - k + 1) % pool:
            raise ConfigError(f"model.kernel, model.pool: a pool of {pool} cannot tile the "
                              f"{h - k + 1}x{w - k + 1} output of kernel {k} on {h}x{w} images")
    for name in ("source_class", "target_class"):
        value = getattr(cfg.attack, name)
        if not 0 <= value < total.class_count:
            raise ConfigError(f"attack.{name}: {value} is not a class of the data, which has "
                              f"{total.class_count} classes")
    total = Dataset(total.features.reshape((len(total),) + feature_shape), total.labels,
                    total.class_count)

    holdout = d.eval_count + d.verified_count
    if holdout + d.clients > len(total):
        raise ConfigError(f"data.eval_count, data.verified_count, data.clients: the splits need "
                          f"{holdout + d.clients} samples, and the dataset has {len(total)}")
    rng = np.random.Generator(np.random.PCG64(derive_seed(master, "split")))
    order = rng.permutation(len(total))
    eval_set = total.subset(order[: d.eval_count])
    # The verifier's trusted split is curated class-balanced, so a model that
    # loses exactly one of C classes scores at most (C-1)/C on it.
    rest = order[d.eval_count :]
    per_cls = d.verified_count // total.class_count
    if per_cls < 1:
        raise ConfigError(f"data.verified_count: {d.verified_count} gives no verified sample "
                          f"per class; the data has {total.class_count} classes")
    ver_idx, pool_idx = [], []
    counts = {c: 0 for c in range(total.class_count)}
    for i in rest:
        c = int(total.labels[i])
        if counts[c] < per_cls:
            counts[c] += 1
            ver_idx.append(i)
        else:
            pool_idx.append(i)
    for c, count in counts.items():
        if count < per_cls:
            raise ConfigError(f"data.verified_count: {d.verified_count} needs {per_cls} "
                              f"verified samples of each class, and class {c} has {count} "
                              f"left after the evaluation split")
    verified_set = total.subset(np.asarray(ver_idx))
    train_pool = total.subset(np.asarray(pool_idx))
    shards = partition(train_pool, d.clients, derive_seed(master, "partition"))

    attack = cfg.attack
    bad = select_malicious(list(range(d.clients)), attack.malicious_fraction,
                           derive_seed(master, "malicious"))
    clients = []
    for cid, shard in enumerate(shards):
        if cid in bad:
            shard = flip_labels(shard, attack.source_class, attack.target_class,
                                attack.flip_fraction, derive_seed(master, "flip", cid))
        clients.append(ClientProfile(cid, shard, cid in bad))

    if cfg.model.kind == "mlp":
        model = nn.init_mlp(feature_shape[0], list(cfg.model.hidden), total.class_count,
                            derive_seed(master, "init"))
    else:
        model = nn.init_cnn(feature_shape, cfg.model.conv_channels, cfg.model.kernel,
                            total.class_count, derive_seed(master, "init"), cfg.model.pool)

    chain = ledger.Chain(difficulty=cfg.ledger.difficulty)
    return ExperimentState(cfg, clients, eval_set, verified_set, model, chain)


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


@dataclass
class ClientOutcome:
    """What one client's step leaves for the round to apply.

    ``shares`` is the sharing the nodes get, or None when the client is
    withdrawn; ``timings`` holds the step's milliseconds per stage.
    """

    accuracy: float
    verdict: Verdict | None
    shares: secure_agg.ModelShares | None
    timings: dict[str, float]


def _client_step(state: ExperimentState, client: ClientProfile,
                 tau: float | None) -> ClientOutcome:
    """Train, evaluate, share and verify one client's model, and decide
    whether its sharing goes to the nodes.

    The accuracy on the evaluation split is 0.0 for a model whose training
    diverged or whose scale overflowed float64, and the verdict is None with
    the verifier off.  The step reads only what the round fixes before its
    first client (the global model, the round, tau, the client's shards and
    the seeds) and changes nothing, so it gives the same outcome in any
    process.  The model is dropped on return.
    """
    cfg = state.config
    cid = client.client_id
    timings = {"train": 0.0, "verify": 0.0, "aggregate": 0.0}
    t0 = time.perf_counter()
    try:
        local = nn.train_local(state.global_model, client.train_shard,
                               learning_rate=cfg.train.learning_rate,
                               epochs=cfg.train.epochs_per_round,
                               batch_size=cfg.train.batch_size,
                               seed=derive_seed(state.master_seed, "train", state.round, cid))
        if client.malicious:
            local = scale_params(local, cfg.attack.scale_factor)
    except nn.NonFiniteParameterError:
        local = None
    timings["train"] += _ms_since(t0)

    model_id = f"r{state.round}/c{cid}"
    # With the verifier on, a model that cannot be scored is rejected with
    # score 0.0 and no inference: one past float64 or outside the ring.
    verdict = (Verdict(model_id, state.round, 0.0, tau, False, 0.0)
               if cfg.verifier.enabled else None)
    if local is None:
        # Inf or NaN parameters make no model to score or share: the client
        # is withdrawn.
        return ClientOutcome(0.0, verdict, None, timings)

    accuracy = nn.evaluate(local, state.eval_set)

    # The one sharing of the model: the verifier scores it, and the nodes get
    # it only if the model is accepted and within the aggregation range.
    t0 = time.perf_counter()
    try:
        shares = secure_agg.share_model_params(
            local, derive_seed(state.master_seed, "agg", state.round, cid),
            cfg.aggregation.nodes)
    except HeadroomError:
        shares = None  # outside the ring: rejected with score 0.0 and withdrawn
    timings["aggregate"] += _ms_since(t0)

    if verdict is not None and shares is not None:
        t0 = time.perf_counter()
        if cfg.verifier.mode == "plaintext":
            verdict = judge(nn.forward(local, state.verified_set.features),
                            state.verified_set.labels, tau, state.round, model_id, _ms_since(t0))
        else:
            verify_dealer = Dealer(derive_seed(state.master_seed, "verify", state.round, cid))
            verdict = verify_local_model(local, state.verified_set, tau, shares, verify_dealer,
                                         state.round, model_id)
        timings["verify"] += _ms_since(t0)

    if ((verdict is not None and not verdict.accepted)
            or not secure_agg.params_in_range(local.flat_params())):
        shares = None
    return ClientOutcome(accuracy, verdict, shares, timings)


def _deliver(state: ExperimentState, agg: AggregationState, client_id: int,
             outcome: ClientOutcome, timings: dict[str, float]) -> None:
    """Apply one client's outcome: add its stage times, and deliver its
    sharing to the nodes or withdraw it."""
    for stage, ms in outcome.timings.items():
        timings[stage] += ms
    t0 = time.perf_counter()
    if outcome.shares is None:
        agg.withdraw(client_id)
    else:
        agg.add(client_id, state.round, outcome.shares)
    timings["aggregate"] += _ms_since(t0)


def _mine_pending(state: ExperimentState) -> ledger.Block:
    """The pending block with its smallest nonce."""
    p = state.pending
    return ledger.mine_block(p.round, p.digest, p.ref, state.chain)


def _serve_clients(state: ExperimentState, clients: list[ClientProfile], tau: float | None,
                   out) -> None:
    """The client worker: each client's outcome in turn, then the pending
    block's nonce if there is one.  An exception is sent in place of the
    result it stopped, and ends the worker."""
    try:
        for client in clients:
            forked.write_frame(out, _client_step(state, client, tau))
        if state.pending is not None:
            forked.write_frame(out, _mine_pending(state).nonce)
    except Exception as exc:
        forked.write_frame(out, exc)
        raise


def _from_worker(worker: forked.Child, what: str):
    """The worker's next result, ``what`` the parent waits for; the
    exception the worker sent in its place is raised here."""
    result = worker.receive(what)
    if isinstance(result, Exception):
        raise result
    return result


def _commit_pending(state: ExperimentState, worker: forked.Child | None = None) -> float:
    """Append the pending block, write the blob of its model (still
    ``state.global_model``) and check the model against the block; return
    the ms spent on the block.  The block is rebuilt from the nonce
    ``worker`` searched for, or mined here without a worker."""
    p = state.pending
    t0 = time.perf_counter()
    if worker is None:
        block = _mine_pending(state)
    else:
        nonce = _from_worker(worker, f"the nonce for round {p.round}")
        block = ledger.next_block(p.round, p.digest, p.ref, state.chain, nonce)
    state.chain.append(block)
    waited = _ms_since(t0)
    state.pending = None
    model_bytes = nn.serialize(state.global_model)
    if state.out_dir is not None:
        (state.out_dir / p.ref).write_bytes(model_bytes)
    if not ledger.verify_global(model_bytes, state.chain, p.round):
        raise RuntimeError("committed model failed its own integrity check")
    return waited


def run_round(state: ExperimentState) -> RoundMetrics:
    """Execute one federated round; raises ExperimentAborted when no model
    is left to aggregate, every one rejected or outside the aggregation range.

    With two or more active clients, one client worker is forked for the
    round's steps at odd positions and, after them, the search for the
    previous round's block; the parent runs the rest and applies every
    outcome in client-id order (see the module docstring).  Stage times are
    summed over the clients of both processes.  Once the parent has
    aggregated, it commits the previous round's block, mined by the worker
    or, without one, here, and reaps the worker.  The round leaves its own
    block in ``state.pending`` for the next round or ``run_experiment`` to
    commit."""
    cfg = state.config
    timings = {"train": 0.0, "verify": 0.0, "aggregate": 0.0}
    active = [c for c in state.clients if c.client_id not in state.banned]

    t0 = time.perf_counter()
    agg = AggregationState(state.round, tuple(c.client_id for c in active),
                           cfg.aggregation.nodes, state.global_model.param_count)
    timings["aggregate"] += _ms_since(t0)
    tau = (threshold_for_round(cfg.verifier, state.prev_verified_acc, state.eval_set.class_count)
           if cfg.verifier.enabled else None)

    per_client_acc: dict[int, float] = {}
    verdicts: dict[int, Verdict] = {}
    worker = (forked.Child(functools.partial(_serve_clients, state, active[1::2], tau),
                           "client worker")
              if len(active) > 1 else None)
    with worker or contextlib.nullcontext():
        for i, c in enumerate(active):
            if i % 2:
                outcome = _from_worker(worker, f"the outcome of client {c.client_id} in "
                                       f"round {state.round}")
            else:
                outcome = _client_step(state, c, tau)
            _deliver(state, agg, c.client_id, outcome, timings)
            per_client_acc[c.client_id] = outcome.accuracy
            if outcome.verdict is not None:
                verdicts[c.client_id] = outcome.verdict
                if not outcome.verdict.accepted and cfg.verifier.ban_on_rejection:
                    state.banned.add(c.client_id)
        # A rejected client or one outside the aggregation range was withdrawn.
        contributors = list(agg.expected_clients)
        if contributors:
            t0 = time.perf_counter()
            new_global = secure_agg.finalize_global(agg.node_partial_sums(),
                                                    len(contributors), state.global_model)
            timings["aggregate"] += _ms_since(t0)
            digest = hashlib.sha256(nn.serialize(new_global)).digest()
            verified_acc = nn.evaluate(new_global, state.verified_set)
            global_acc = nn.evaluate(new_global, state.eval_set)
        # The parent's own work is done; the worker may still be searching.
        if state.pending is not None:
            timings["mine"] = _commit_pending(state, worker)

    if not contributors:
        metrics = RoundMetrics(state.round, per_client_acc, verdicts, [], 0.0, "",
                               aborted=True, timings_ms=timings)
        raise ExperimentAborted(f"round {state.round}: no model to aggregate", metrics)

    state.pending = PendingBlock(state.round, digest)
    state.global_model = new_global
    state.prev_verified_acc = verified_acc
    metrics = RoundMetrics(state.round, per_client_acc, verdicts, contributors, global_acc,
                           digest.hex(), timings_ms=timings)
    state.round += 1
    return metrics


def _detector_stats(state: ExperimentState, rounds: list[RoundMetrics]) -> dict:
    malicious = {c.client_id for c in state.clients if c.malicious}
    mal_total = mal_caught = benign_total = benign_rejected = 0
    for rm in rounds:
        for cid, v in rm.verdicts.items():
            if cid in malicious:
                mal_total += 1
                mal_caught += 0 if v.accepted else 1
            else:
                benign_total += 1
                benign_rejected += 0 if v.accepted else 1
    return {
        "recall": (mal_caught / mal_total) if mal_total else None,
        "false_positive_rate": (benign_rejected / benign_total) if benign_total else None,
        "false_positives": benign_rejected,
    }


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> dict:
    """Run all rounds, write artifacts to ``out_dir`` if given, and return the
    summary dict.

    Before round 0, ``out_dir/config.json`` records ``cfg`` as validated, so
    even an aborted run names the config that made it and ``fedchain run
    --config out_dir/config.json`` runs it again.  Each round writes its
    model blob as it commits; the rest is written when the rounds end.
    """
    state = build_state(cfg)
    if out_dir is not None:
        state.out_dir = Path(out_dir)
        # Every artifact path, checked before anything is written: one that
        # exists but is not a regular file would fail the run partway.
        for name in ("config.json", "metrics.jsonl", "verdicts.jsonl", "timings.csv",
                     "summary.csv", "chain.bin",
                     *(PendingBlock(r, b"").ref for r in range(cfg.train.rounds))):
            path = state.out_dir / name
            if path.exists() and not path.is_file():
                raise ConfigError(f"--out-dir: {path}: not a regular file")
        try:
            (state.out_dir / "models").mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file in the way, or no permission
            raise ConfigError(f"--out-dir: {exc.filename}: {exc.strerror}") from exc
        (state.out_dir / "config.json").write_text(json.dumps(cfg.to_dict(), indent=1) + "\n")
    rounds: list[RoundMetrics] = []
    aborted = False
    try:
        for _ in range(cfg.train.rounds):
            rounds.append(run_round(state))
    except ExperimentAborted as exc:
        rounds.append(exc.args[1])
        aborted = True
    if state.pending is not None:
        # The last round's block: no round is left to fork a worker for it.
        timings = rounds[-1].timings_ms
        timings["mine"] = timings.get("mine", 0.0) + _commit_pending(state)

    detector = _detector_stats(state, rounds)
    final_acc = rounds[-1].global_accuracy if rounds and not aborted else 0.0

    summary = {
        "rounds_completed": sum(1 for r in rounds if not r.aborted),
        "aborted": aborted,
        "final_global_accuracy": final_acc,
        "detector_recall": detector["recall"],
        "detector_false_positive_rate": detector["false_positive_rate"],
        "detector_false_positives": detector["false_positives"],
        "malicious_clients": sorted(c.client_id for c in state.clients if c.malicious),
        "final_digest": rounds[-1].committed_digest if rounds else "",
    }

    if state.out_dir is not None:
        _write_artifacts(state.out_dir, rounds, summary, state.chain)
    return summary


def _write_artifacts(out: Path, rounds: list[RoundMetrics], summary: dict,
                     chain: ledger.Chain) -> None:
    """Write everything but the model blobs, which each round wrote as it
    committed."""
    (out / "metrics.jsonl").write_text(
        "".join(rm.metrics_json() + "\n" for rm in rounds)
    )
    (out / "verdicts.jsonl").write_text("".join(json.dumps(asdict(v), sort_keys=True) + "\n"
                                                for rm in rounds for v in rm.verdicts.values()))
    with open(out / "timings.csv", "w") as fh:
        fh.write("round,train_ms,verify_ms,aggregate_ms,mine_ms\n")
        for rm in rounds:
            t = rm.timings_ms
            fh.write(f"{rm.round},{t.get('train', 0.0):.3f},{t.get('verify', 0.0):.3f},"
                     f"{t.get('aggregate', 0.0):.3f},{t.get('mine', 0.0):.3f}\n")
    with open(out / "summary.csv", "w") as fh:
        keys = sorted(summary)
        fh.write(",".join(keys) + "\n")
        fh.write(",".join(_csv_cell(summary[k]) for k in keys) + "\n")
    ledger.save_chain(chain, str(out / "chain.bin"))


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return ";".join(str(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)
