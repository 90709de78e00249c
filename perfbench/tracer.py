"""Outside-in tracing of fedchain's public functions.

The tracer wraps each target function and installs the wrapper under every
name that refers to it in a loaded ``fedchain`` module, so a function that
another module imports by name (``from .sharing import split``) is traced at
the call site too.  A target that no longer exists is reported as absent
instead of failing the run.

Each wrapper records a span: calls, self time (duration minus the time of
traced calls made inside it) and, where defined, a work count read from the
argument or return shapes.  Spans are kept per phase: ``setup`` before the
first round starts, ``run`` after it, so run-phase self times plus an
unattributed remainder add up to the traced run time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


def _shares(pair) -> int:
    return len(pair[0])


# (module, attribute path, work-count name, work-count function(args, kwargs, result)).
# Lane counts come from the (K,) payload arrays, which keep their shape when
# the seed layout behind them changes.
TARGETS = [
    ("prg", "expand_node", "lanes", lambda a, k, r: _size(r[1])),
    ("prg", "convert_seed", "lanes", lambda a, k, r: _size(r)),
    ("fss", "dcf_gen_batch", "keys", lambda a, k, r: _size(a[0])),
    ("fss", "dcf_eval_batch", "lanes", lambda a, k, r: _size(r)),
    ("fss", "gen_sign_correlation", "lanes", lambda a, k, r: int(a[0])),
    ("fss", "apply_sign_correlation", "lanes", lambda a, k, r: _shares(r)),
    ("secure_inference", "provision", None, None),
    ("secure_inference", "encrypted_infer", None, None),
    ("secure_inference", "encrypt_model", None, None),
    ("secure_inference", "encrypt_batch", None, None),
    ("secure_inference", "verify_local_model", None, None),
    ("sharing", "beaver_matmul", "elements", lambda a, k, r: _size(r[0])),
    ("sharing", "beaver_mul", "elements", lambda a, k, r: _shares(r)),
    ("sharing", "truncate_shares", "elements", lambda a, k, r: _shares(r)),
    ("sharing", "split", "elements", lambda a, k, r: _size(a[0])),
    ("sharing", "reconstruct", "elements", lambda a, k, r: _size(r)),
    ("sharing", "local_sum", "elements", lambda a, k, r: _size(r.values) * len(a[0])),
    ("secure_agg", "share_model_params", "elements", lambda a, k, r: int(a[0].param_count)),
    ("secure_agg", "AggregationState.node_partial_sums", None, None),
    ("secure_agg", "finalize_global", None, None),
    ("ledger", "mine_block", "hashes", lambda a, k, r: int(r.nonce) + 1),
    ("ledger", "consensus_commit", None, None),
    ("ledger", "verify_global", None, None),
    ("nn", "train_local", "samples", lambda a, k, r: len(a[1])),
    ("nn", "evaluate", "samples", lambda a, k, r: len(a[1])),
    ("data", "gen_synthetic", "samples", lambda a, k, r: len(r)),
    ("data", "load_idx", "samples", lambda a, k, r: len(r)),
    ("data", "partition", "samples", lambda a, k, r: len(a[0])),
]

# Functions the benchmark's output check calls after the run, traced in the
# checking process.
CHECK_TARGETS = [
    ("ledger", "load_chain", "blocks", lambda a, k, r: len(r)),
    ("ledger", "validate_chain", None, None),
    ("ledger", "verify_global", None, None),
]

SHADOW = "shadow.evaluate"


def target_name(module: str, path: str) -> str:
    return f"{module}.{path}"


class Tracer:
    """Span stack plus per-phase totals: name -> [calls, self_s, work or None]."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.totals: dict[str, dict[str, list]] = {"setup": {}, "run": {}}
        self.absent: list[str] = []
        self.shadow = {"verdicts": 0, "mismatches": 0, "max_acc_gap": 0.0}
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += duration
                entry = self.totals[self.phase].setdefault(name, [0, 0.0, 0])
                entry[0] += 1
                entry[1] += duration - children[0]
            if work is not None and entry[2] is not None:
                try:
                    entry[2] += work(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    entry[2] = None  # the shape changed; report the count as unknown
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target wherever a loaded fedchain module names it."""
        for module, path, _, work in targets:
            name = target_name(module, path)
            owner, original = _resolve(module, path)
            if original is None:
                self.absent.append(name)
                continue
            traced = self.wrap(name, original, work)
            setattr(owner, path.rsplit(".", 1)[-1], traced)
            _rebind(original, traced)

    def install_shadow(self) -> None:
        """Score every verified model in plaintext too, on the same split and
        threshold, to count verdicts whose encrypted decision differs."""
        owner, verify = _resolve("secure_inference", "verify_local_model")
        _, evaluate = _resolve("nn", "evaluate")
        if verify is None or evaluate is None:
            self.absent.append(SHADOW)
            return
        evaluate = getattr(evaluate, "__wrapped__", evaluate)
        shadow_eval = self.wrap(SHADOW, evaluate)
        signature = inspect.signature(verify)

        @functools.wraps(verify)
        def verify_with_shadow(*args, **kwargs):
            verdict = verify(*args, **kwargs)
            bound = signature.bind(*args, **kwargs).arguments
            model, testset, tau = list(bound.values())[:3]
            plain = shadow_eval(model, testset)
            self.shadow["verdicts"] += 1
            self.shadow["mismatches"] += int((plain >= tau) != bool(verdict.accepted))
            self.shadow["max_acc_gap"] = max(self.shadow["max_acc_gap"],
                                             abs(verdict.encrypted_accuracy - plain))
            return verdict

        setattr(owner, "verify_local_model", verify_with_shadow)
        _rebind(verify, verify_with_shadow)

    def report(self) -> dict:
        return {
            "phases": {p: {n: {"calls": c, "self_s": s, "work": w}
                           for n, (c, s, w) in t.items()}
                       for p, t in self.totals.items()},
            "absent": sorted(set(self.absent)),
            "shadow": dict(self.shadow),
        }


def _resolve(module: str, path: str):
    """(owner, function) for ``fedchain.<module>.<path>``, or (None, None)."""
    try:
        owner = importlib.import_module(f"fedchain.{module}")
    except ImportError:
        return None, None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    fn = getattr(owner, parts[-1], None)
    return (owner, fn) if callable(fn) else (None, None)


def _rebind(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fedchain" or mod_name.startswith("fedchain.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
