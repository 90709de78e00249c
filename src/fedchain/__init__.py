"""Federated learning with encrypted model verification and a blockchain-backed
aggregation layer, at desk scale.

Clients train local models; a verifier scores each candidate by running
trusted test data through the secret-shared model (nothing about the
parameters leaks to the verifier); accepted models are averaged under
additive secret sharing across blockchain nodes; and the digest of the
averaged model is committed to a proof-of-work chain.
"""

from .ring import HeadroomError, ModulusMismatchError
from .sharing import (
    Dealer,
    Triple,
    beaver_mul,
    truncate_shares,
)
from .fss import FssConfig
from .nn import Model, TrainConfig, evaluate, forward, serialize, train_local
from .data import Dataset, gen_synthetic, load_csv, load_idx, partition
from .secure_inference import (
    EncryptedBatch,
    EncryptedModel,
    InferenceOutputs,
    Verdict,
    encrypt_batch,
    encrypt_model,
    encrypted_infer,
    verify_local_model,
)
from .secure_agg import (
    AggregationState,
    finalize_global,
    share_model_params,
)
from .ledger import Block, Chain, mine_block, validate_chain, verify_global
from .config import ExperimentConfig, load_config, validate
from .simulation import (
    ClientProfile,
    RoundMetrics,
    flip_labels,
    run_experiment,
    run_round,
    scale_params,
    select_malicious,
)

__version__ = "0.1.0"
