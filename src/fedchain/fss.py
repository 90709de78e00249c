"""Function secret sharing for comparison predicates.

Two evaluation keys realize the comparison function
f(x) = beta * 1{x < alpha} in shared form: for every public x the two
parties' outputs sum to f(x) in the output ring, while either key alone
reveals nothing about alpha or the payload beta.  The outputs live in
Z_2^63, the ring of every other share (:mod:`fedchain.ring`); only the
input domain has a width of its own, 2^n for an n-bit key.  A plain
comparison has beta = 1.

The construction is the standard seed-expansion tree for distributed
comparison functions: walking the bits of x from most significant to least,
each level expands a 128-bit seed into two child seeds, two group payloads
and two control bits, and a per-level correction word steers the two
parties' walks so their payload sums telescope to the comparison outcome.
The payload enters the correction words of the levels where alpha's bit is
1.  Key size is one root seed plus one correction word per input bit.

Sign extraction is built on top with one comparison key per element
(Boyle et al., *Function Secret Sharing for Mixed-Mode and Fixed-Point
Secure Computation*, Eurocrypt 2021).  The dealer draws a mask r
over the n-bit domain and the parties open x = (y + r) mod 2^n.  With MSB
the top bit and v' = v mod 2^(n-1) the low bits,

    MSB(y) = MSB(x) xor MSB(r) xor 1{x' < r'}.

The dealer deals an (n-1)-bit comparison key at r' with payload
beta = 1 - 2*MSB(r), plus additive shares of MSB(r); the key's output c
then makes MSB(r) + c a sharing of MSB(r) xor 1{x' < r'}.  With the public
p = MSB(x) each party forms its share of

    1{y >= 0} = (1 - p) - (1 - 2p) * (MSB(r) + c)

locally, party 0 adding the public 1 - p.  A batch of K sign extractions is
one K-lane key batch, so each party walks its tree once per batch.  The
identity reads the sign from the low n bits of y, which is exact for
|y| < 2^(n-1); callers keep the stricter guard |y| < 2^(n-2).  Shared
values enter and leave as plain two-party pairs of uint64 arrays in
Z_2^63.

The dealer deals everything a key batch or a sign correlation holds from
its one AES-128-CTR stream (:class:`fedchain.sharing.Dealer`): each root
seed is the next two stream words, and each mask r, share of r and share
of MSB(r) is the top bits of one word.

Everything is vectorised: a batch of K independent instances is processed
as K lanes through the batched PRG in :mod:`fedchain.prg`.  Numpy call
overhead dominates the PRG at these widths, so work is merged into as few,
wide PRG calls as the protocol allows: key generation expands both
parties' trees in one call per level, and each party evaluates only its own
root seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import prg
from .ring import MASK
from .sharing import SharePair

MAX_BIT_WIDTH = 32


class KeyReuseError(RuntimeError):
    """A one-shot correlation bundle was used twice."""


@dataclass(frozen=True)
class FssConfig:
    """Comparison domain width in bits."""

    bit_width: int = 32

    def __post_init__(self) -> None:
        if not 1 <= self.bit_width <= MAX_BIT_WIDTH:
            raise ValueError(f"bit_width must be in [1, {MAX_BIT_WIDTH}]")

    @property
    def domain_size(self) -> int:
        return 1 << self.bit_width


def _gneg(v: np.ndarray) -> np.ndarray:
    return (np.uint64(0) - v) & MASK


@dataclass
class DcfKeyBatch:
    """K comparison keys laid out lane-wise (correction words are shared)."""

    cfg: FssConfig
    roots: tuple[np.ndarray, np.ndarray]  # per party, (4, K) uint32
    s_cw: np.ndarray    # (levels, 4, K) uint32
    v_cw: np.ndarray    # (levels, K) uint64
    t_cw_l: np.ndarray  # (levels, K) uint8
    t_cw_r: np.ndarray  # (levels, K) uint8
    leaf_cw: np.ndarray  # (K,) uint64

    @property
    def size(self) -> int:
        return self.roots[0].shape[1]

    def repeat(self, reps: int) -> DcfKeyBatch:
        """Every key lane repeated ``reps`` times: lane k * reps + j holds key k."""
        def lanes(a: np.ndarray) -> np.ndarray:
            return np.repeat(a, reps, axis=-1)

        return DcfKeyBatch(
            self.cfg,
            (lanes(self.roots[0]), lanes(self.roots[1])),
            lanes(self.s_cw),
            lanes(self.v_cw),
            lanes(self.t_cw_l),
            lanes(self.t_cw_r),
            lanes(self.leaf_cw),
        )


def dcf_gen_batch(alphas: np.ndarray, cfg: FssConfig, dealer,
                  betas: np.ndarray | int = 1) -> DcfKeyBatch:
    """Keys for f_k(x) = betas[k] * 1{x < alphas[k]}, K lanes at once.

    ``betas`` holds one payload in Z_2^63 per lane; a scalar applies to
    every lane.
    """
    alphas = np.asarray(alphas, dtype=np.uint64)
    if alphas.ndim != 1:
        raise ValueError("alphas must be a flat vector")
    if np.any(alphas >= np.uint64(cfg.domain_size)):
        raise ValueError("alpha outside comparison domain")
    n, k = cfg.bit_width, alphas.size
    betas = np.broadcast_to(np.asarray(betas, dtype=np.uint64) & MASK, alphas.shape)

    # Both parties' walks side by side: seeds (4, 2, K), payloads and
    # control bits (2, K), party 0 first.  One PRG call per level covers both.
    s0 = _random_seeds(dealer, k)
    s1 = _random_seeds(dealer, k)
    roots = (s0, s1)
    s = np.stack(roots, axis=1)
    t = np.zeros((2, k), dtype=np.uint8)
    t[1] = 1
    v_alpha = np.zeros(k, dtype=np.uint64)

    s_cw = np.empty((n, 4, k), dtype=np.uint32)
    v_cw_all = np.empty((n, k), dtype=np.uint64)
    t_cw_l_all = np.empty((n, k), dtype=np.uint8)
    t_cw_r_all = np.empty((n, k), dtype=np.uint8)

    for i in range(n):
        sl, vl, tl, sr, vr, tr = _expand_both(s)
        ai = ((alphas >> np.uint64(n - 1 - i)) & np.uint64(1)).astype(np.uint8)
        keep_r = ai.astype(bool)          # alpha bit 1 -> keep right, lose left

        s_lose = np.where(keep_r, sl, sr)
        cw_s = s_lose[:, 0] ^ s_lose[:, 1]

        v_lose = np.where(keep_r, vl, vr) & MASK
        base = (v_lose[1] - v_lose[0] - v_alpha) & MASK
        # The payload enters on the lose-left levels (alpha bit 1).
        base = (base + np.where(keep_r, betas, np.uint64(0))) & MASK
        t1_on = t[1].astype(bool)
        v_cw = np.where(t1_on, _gneg(base), base)

        v_keep = np.where(keep_r, vr, vl) & MASK
        signed_cw = np.where(t1_on, _gneg(v_cw), v_cw)
        v_alpha = (v_alpha - v_keep[1] + v_keep[0] + signed_cw) & MASK

        t_cw_l = tl[0] ^ tl[1] ^ ai ^ np.uint8(1)
        t_cw_r = tr[0] ^ tr[1] ^ ai

        s_cw[i] = cw_s
        v_cw_all[i] = v_cw
        t_cw_l_all[i] = t_cw_l
        t_cw_r_all[i] = t_cw_r

        s_keep = np.where(keep_r, sr, sl)
        t_keep = np.where(keep_r, tr, tl)
        t_cw_keep = np.where(keep_r, t_cw_r, t_cw_l)

        s = np.where(t.astype(bool), s_keep ^ cw_s[:, np.newaxis], s_keep)
        t = t_keep ^ (t & t_cw_keep)

    conv = prg.convert_seed(s.reshape(4, 2 * k)).reshape(2, k) & MASK
    leaf = (conv[1] - conv[0] - v_alpha) & MASK
    leaf = np.where(t[1].astype(bool), _gneg(leaf), leaf)

    return DcfKeyBatch(cfg, roots, s_cw, v_cw_all, t_cw_l_all, t_cw_r_all, leaf)


def _expand_both(s: np.ndarray) -> tuple:
    """``prg.expand_node`` on (4, 2, K) seeds, fields shaped (4, 2, K) and (2, K)."""
    k = s.shape[2]
    fields = prg.expand_node(s.reshape(4, 2 * k))
    return tuple(f.reshape(-1, 2, k) if f.ndim == 2 else f.reshape(2, k) for f in fields)


def dcf_eval_batch(party: int, batch: DcfKeyBatch, xs: np.ndarray) -> np.ndarray:
    """Evaluate lane k's key at public point xs[k]; returns (K,) uint64 shares."""
    if party not in (0, 1):
        raise ValueError("party must be 0 or 1")
    cfg = batch.cfg
    xs = np.asarray(xs, dtype=np.uint64)
    if xs.shape != (batch.size,):
        raise ValueError("one evaluation point per key lane required")
    if np.any(xs >= np.uint64(cfg.domain_size)):
        raise ValueError("x outside comparison domain")
    n = cfg.bit_width

    s = batch.roots[party].copy()
    t = np.full(batch.size, party, dtype=np.uint8)
    out = np.zeros(batch.size, dtype=np.uint64)

    for i in range(n):
        sl, vl, tl, sr, vr, tr = prg.expand_node(s)
        t_on = t.astype(bool)
        lane = t_on[np.newaxis, :]
        csl = np.where(lane, sl ^ batch.s_cw[i], sl)
        csr = np.where(lane, sr ^ batch.s_cw[i], sr)
        ctl = tl ^ (t & batch.t_cw_l[i])
        ctr = tr ^ (t & batch.t_cw_r[i])

        xi = ((xs >> np.uint64(n - 1 - i)) & np.uint64(1)).astype(bool)
        v_sel = np.where(xi, vr, vl) & MASK
        v_curr = (v_sel + np.where(t_on, batch.v_cw[i], np.uint64(0))) & MASK
        out = (out - v_curr if party else out + v_curr) & MASK

        s = np.where(xi[np.newaxis, :], csr, csl)
        t = np.where(xi, ctr, ctl)

    final = (prg.convert_seed(s) + np.where(t.astype(bool), batch.leaf_cw, np.uint64(0))) & MASK
    return (out - final if party else out + final) & MASK


def _random_seeds(dealer, k: int) -> np.ndarray:
    """(4, K) uint32 seed lanes: the next 2K dealer words as 4K 32-bit halves."""
    return dealer.words(2 * k).view(np.uint32).reshape(4, k)


# ---------------------------------------------------------------------------
# Sign extraction on shared values.
# ---------------------------------------------------------------------------


@dataclass
class SignCorrelation:
    """Dealer bundle for one batch of K sign extractions at width n.

    ``keys`` is one K-lane comparison key batch over the low n-1 bits: lane
    k compares at r_k mod 2^(n-1) with payload 1 - 2*MSB(r_k) in Z_2^63,
    so each party evaluates all of its keys in a single tree walk.  With
    them come additive shares of the masks r over the n-bit domain and
    additive shares of MSB(r) in Z_2^63.
    """

    cfg: FssConfig
    keys: DcfKeyBatch
    alpha_shares: tuple[np.ndarray, np.ndarray]
    msb_shares: tuple[np.ndarray, np.ndarray]
    _consumed: bool = field(default=False, repr=False)

    def consume(self) -> None:
        if self._consumed:
            raise KeyReuseError("sign correlation already used for a masked opening")
        self._consumed = True


def gen_sign_correlation(count: int, cfg: FssConfig, dealer) -> SignCorrelation:
    masks = dealer.uniform(count, cfg.bit_width)
    return _sign_correlation(masks, cfg, dealer)


def _sign_correlation(masks: np.ndarray, cfg: FssConfig, dealer) -> SignCorrelation:
    """The dealer bundle for the given n-bit masks r."""
    n, count = cfg.bit_width, masks.size
    dmask = np.uint64(cfg.domain_size - 1)
    msb = masks >> np.uint64(n - 1)
    betas = np.uint64(1) - (msb << np.uint64(1))  # +1 or -1 in Z_2^63
    keys = dcf_gen_batch(masks & (dmask >> np.uint64(1)), FssConfig(n - 1), dealer, betas)

    a0 = dealer.uniform(count, cfg.bit_width)
    a1 = (masks - a0) & dmask
    m0 = dealer.uniform(count)
    m1 = (msb - m0) & MASK
    return SignCorrelation(cfg, keys, (a0, a1), (m0, m1))


def apply_sign_correlation(y: SharePair, corr: SignCorrelation) -> SharePair:
    """Run the masked-comparison protocol; outputs share 1{y >= 0}.

    Parties reveal x = (y + r) mod 2^n and evaluate their comparison key at
    x mod 2^(n-1).  Adding the MSB(r) share to the key output gives a
    sharing of MSB(r) xor 1{x' < r'}, which is MSB(y) xor MSB(x); the
    public p = MSB(x) turns it into 1{y >= 0} share-locally.
    """
    corr.consume()
    cfg = corr.cfg
    if y[0].shape != (corr.keys.size,):
        raise ValueError("correlation sized for a different batch")
    dmask = np.uint64(cfg.domain_size - 1)

    # Ring reduction to the comparison domain is share-local and exact.
    x_pub = (
        (y[0] & dmask) + corr.alpha_shares[0]
        + (y[1] & dmask) + corr.alpha_shares[1]
    ) & dmask
    p = (x_pub >> np.uint64(cfg.bit_width - 1)).astype(bool)
    x_low = x_pub & (dmask >> np.uint64(1))

    outs = []
    for party in (0, 1):
        w = (corr.msb_shares[party] + dcf_eval_batch(party, corr.keys, x_low)) & MASK
        # p = 1: 1{y >= 0} = w.  p = 0: 1 - w, party 0 holding the public 1.
        outs.append(np.where(p, w, (np.uint64(1 - party) - w) & MASK))
    return outs[0], outs[1]

