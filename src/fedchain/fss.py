"""Function secret sharing for comparison predicates.

Two evaluation keys realize the comparison function
f(x) = beta * 1{x < alpha} in shared form: for every public x the two
parties' outputs sum to f(x) in the output ring, while either key alone
reveals nothing about alpha or the payload beta.  The outputs live in
Z_2^63, the ring of every other share (:mod:`fedchain.ring`); only the
input domain has a width of its own, 2^n for an n-bit key.  That width n
is the one parameter: key generation takes it as an int, and a key batch
carries it as its depth, one correction word per bit.  A plain comparison
has beta = 1.

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
one K-lane key batch, so one tree walk per batch serves both parties.  The
identity reads the sign from the low n bits of y, which is exact for
|y| < 2^(n-1); callers keep the stricter guard |y| < 2^(n-2).  Shared
values enter and leave as party-major (2, K) uint64 arrays in Z_2^63, row
p party p's share, as in :mod:`fedchain.sharing`; the dealer's shares of
the masks r and of MSB(r) are laid out the same way.

The dealer deals everything a key batch or a sign correlation holds from
its one AES-128-CTR stream (:class:`fedchain.sharing.Dealer`): each root
seed is the next two stream words, and each mask r, share of r and share
of MSB(r) is the top bits of one word.

Everything is vectorised: a batch of K independent instances is processed
as K lanes through the batched PRG in :mod:`fedchain.prg`.  Key generation
and evaluation descend through one step, ``_descend``: from one level's
expanded seeds it takes the child each lane's bit picks and applies that
level's correction words where the control bit is set.  Both walk the two
parties' trees as one party-major (4, 2K) lane array, lane p*K + j being
party p's key j, so a level costs one PRG call whichever walk it is in: the
dealer walks down alpha's path and derives each level's correction words
from the expanded fields before it descends, and evaluation walks down x's
path, the correction words broadcasting over the party axis.  The bits of
alpha or x are extracted once per batch as an (n, K) matrix, and payload
sums wrap mod 2^64, which 2^63 divides, so each walk is reduced into Z_2^63
once, at its end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import prg
from .ring import MASK
from .sharing import open_pair, split_pair

MAX_BIT_WIDTH = 32


class KeyReuseError(RuntimeError):
    """A one-shot correlation bundle was used twice."""


@dataclass
class DcfKeyBatch:
    """K comparison keys laid out lane-wise (correction words are shared);
    their domain width is their depth, ``len(v_cw)``."""

    roots: np.ndarray   # (2, 4, K) uint32, row p party p's root seeds
    s_cw: np.ndarray    # (levels, 4, K) uint32
    v_cw: np.ndarray    # (levels, K) uint64
    t_cw_l: np.ndarray  # (levels, K) uint8
    t_cw_r: np.ndarray  # (levels, K) uint8
    leaf_cw: np.ndarray  # (K,) uint64

    @property
    def size(self) -> int:
        return self.roots.shape[2]


def dcf_gen_batch(alphas: np.ndarray, bits: int, dealer,
                  betas: np.ndarray | int = 1) -> DcfKeyBatch:
    """Keys for f_k(x) = betas[k] * 1{x < alphas[k]} over the ``bits``-bit
    domain, K lanes at once.

    ``betas`` holds one payload in Z_2^63 per lane; a scalar applies to
    every lane.
    """
    if not 1 <= bits <= MAX_BIT_WIDTH:
        raise ValueError(f"bits must be in [1, {MAX_BIT_WIDTH}]")
    alphas = np.asarray(alphas, dtype=np.uint64)
    if alphas.ndim != 1:
        raise ValueError("alphas must be a flat vector")
    if np.any(alphas >= np.uint64(1 << bits)):
        raise ValueError("alpha outside comparison domain")
    n, k = bits, alphas.size
    betas = np.broadcast_to(np.asarray(betas, dtype=np.uint64), alphas.shape)

    # Root seeds are the next 4K dealer words as 32-bit halves, party 0's
    # (4, K) lanes first.  Both parties walk down alpha's path as one
    # party-major (4, 2K) lane array, lane p*K + j being party p's key j.
    # The dealer views seeds and fields as (..., 2, K), so a per-key word
    # broadcasts over both parties.
    roots = dealer.words(4 * k).view(np.uint32).reshape(2, 4, k)
    s = roots.transpose(1, 0, 2)
    t = np.zeros((2, k), dtype=np.uint8)
    t[1] = 1
    acc = np.zeros((2, k), dtype=np.uint64)

    s_cw = np.empty((n, 4, k), dtype=np.uint32)
    v_cw = np.empty((n, k), dtype=np.uint64)
    t_cw_l = np.empty((n, k), dtype=np.uint8)
    t_cw_r = np.empty((n, k), dtype=np.uint8)

    for i, ai in enumerate(_bits(alphas, n)):
        fields = _expand(s)
        sl, vl, tl, sr, vr, tr = fields
        # The correction words make the two walks agree on the seed and
        # control bit of the child alpha's bit loses, and make their payload
        # sums there differ by beta where that child is the left one (alpha
        # bit 1), by 0 otherwise.  ``v_alpha`` is what party 0's walk has
        # summed so far minus party 1's.
        s_lose = np.where(ai, sl, sr)
        v_lose = np.where(ai, vl, vr)
        v_alpha = acc[0] - acc[1]
        base = v_lose[1] - v_lose[0] - v_alpha + np.where(ai, betas, np.uint64(0))
        s_cw[i] = s_lose[:, 0] ^ s_lose[:, 1]
        v_cw[i] = np.where(t[1], -base, base)
        t_cw_l[i] = tl[0] ^ tl[1] ^ ai ^ np.uint8(1)
        t_cw_r[i] = tr[0] ^ tr[1] ^ ai
        s, t, v = _descend(fields, ai, t, s_cw[i][:, np.newaxis], v_cw[i], t_cw_l[i], t_cw_r[i])
        acc += v

    # The leaf word makes the two sums agree at alpha itself.
    conv = prg.convert_seed(s.reshape(4, 2 * k)).reshape(2, k) + acc
    leaf = conv[1] - conv[0]
    leaf = np.where(t[1], -leaf, leaf) & MASK
    return DcfKeyBatch(roots, s_cw, v_cw & MASK, t_cw_l, t_cw_r, leaf)


def _bits(values: np.ndarray, n: int) -> np.ndarray:
    """(n, K) uint8: row i holds bit n-1-i of every lane, most significant first."""
    bits = values >> np.arange(n - 1, -1, -1, dtype=np.uint64)[:, np.newaxis]
    bits &= np.uint64(1)
    return bits.astype(np.uint8)


def _expand(s: np.ndarray) -> tuple:
    """One ``prg.expand_node`` call on (4, 2, K) seeds; fields viewed as (..., 2, K)."""
    k = s.shape[-1]
    return tuple(f.reshape(*f.shape[:-1], 2, k) for f in prg.expand_node(s.reshape(4, 2 * k)))


def _descend(fields: tuple, bits: np.ndarray, t: np.ndarray, s_cw: np.ndarray,
             v_cw: np.ndarray, t_cw_l: np.ndarray, t_cw_r: np.ndarray) -> tuple:
    """One level of a walk: the child each lane's bit picks, corrected.

    ``fields`` is ``prg.expand_node`` on the lanes' seeds; ``bits`` picks
    the right child where 1 and the left where 0.  Where the control bit
    ``t`` is set, the level's correction words enter: ``s_cw`` is XORed into
    the child seed, the picked side's control correction into its control
    bit, and ``v_cw`` is added to its payload.  Returns the child's seed,
    control bit and payload; payloads wrap mod 2^64, which 2^63 divides, so
    a walk's sum needs one reduction at its end.
    """
    sl, vl, tl, sr, vr, tr = fields
    on = t.astype(bool)
    s_next = np.where(bits, sr, sl)
    s_next = np.where(on, s_next ^ s_cw, s_next)
    t_next = np.where(bits, tr, tl) ^ (t & np.where(bits, t_cw_r, t_cw_l))
    v = np.where(bits, vr, vl) + np.where(on, v_cw, np.uint64(0))
    return s_next, t_next, v


def dcf_eval_batch(batch: DcfKeyBatch, xs: np.ndarray) -> np.ndarray:
    """Evaluate lane k's key at public point xs[k]; returns (2, K) uint64
    shares, row p party p's, which reads only party p's root seeds."""
    n, k = len(batch.v_cw), batch.size
    xs = np.asarray(xs, dtype=np.uint64)
    if xs.shape != (k,):
        raise ValueError("one evaluation point per key lane required")
    if np.any(xs >= np.uint64(1 << n)):
        raise ValueError("x outside comparison domain")

    # Both walks run as one party-major lane array, as the dealer's does.
    s = batch.roots.transpose(1, 0, 2)
    t = np.zeros((2, k), dtype=np.uint8)
    t[1] = 1
    out = np.zeros((2, k), dtype=np.uint64)
    for i, xi in enumerate(_bits(xs, n)):
        s, t, v = _descend(_expand(s), xi, t, batch.s_cw[i][:, np.newaxis], batch.v_cw[i],
                           batch.t_cw_l[i], batch.t_cw_r[i])
        out += v
    out += prg.convert_seed(s.reshape(4, 2 * k)).reshape(2, k)
    out += np.where(t.astype(bool), batch.leaf_cw, np.uint64(0))
    # Party 1 holds the negated walk, so the two outputs sum to f(x).
    out[1] = -out[1]
    return out & MASK


# ---------------------------------------------------------------------------
# Sign extraction on shared values.
# ---------------------------------------------------------------------------


@dataclass
class SignCorrelation:
    """Dealer bundle for one batch of K sign extractions at width n.

    ``keys`` is one K-lane comparison key batch over the low n-1 bits: lane
    k compares at r_k mod 2^(n-1) with payload 1 - 2*MSB(r_k) in Z_2^63,
    so both parties evaluate all of their keys in a single tree walk.  With
    them come additive shares of the masks r over the n-bit domain and
    additive shares of MSB(r) in Z_2^63, each a party-major (2, K) array.
    The width n is one more than the keys' depth.
    """

    keys: DcfKeyBatch
    alpha_shares: np.ndarray
    msb_shares: np.ndarray
    _consumed: bool = field(default=False, repr=False)

    def consume(self) -> None:
        if self._consumed:
            raise KeyReuseError("sign correlation already used for a masked opening")
        self._consumed = True


def gen_sign_correlation(count: int, bits: int, dealer) -> SignCorrelation:
    """The dealer bundle for ``count`` lanes, with fresh ``bits``-bit masks r."""
    masks = dealer.uniform(count, bits)
    dmask = np.uint64((1 << bits) - 1)
    msb = masks >> np.uint64(bits - 1)
    betas = np.uint64(1) - (msb << np.uint64(1))  # +1 or -1 in Z_2^63
    keys = dcf_gen_batch(masks & (dmask >> np.uint64(1)), bits - 1, dealer, betas)

    a0 = dealer.uniform(count, bits)
    return SignCorrelation(keys, np.stack((a0, (masks - a0) & dmask)), split_pair(msb, dealer))


def apply_sign_correlation(y: np.ndarray, corr: SignCorrelation) -> np.ndarray:
    """Run the masked-comparison protocol; outputs share 1{y >= 0}.

    Parties reveal x = (y + r) mod 2^n and evaluate their comparison key at
    x mod 2^(n-1).  Adding the MSB(r) share to the key output gives a
    sharing of MSB(r) xor 1{x' < r'}, which is MSB(y) xor MSB(x); the
    public p = MSB(x) turns it into 1{y >= 0} share-locally.
    """
    corr.consume()
    if y.shape != (2, corr.keys.size):
        raise ValueError("correlation sized for a different batch")
    n = len(corr.keys.v_cw) + 1
    dmask = np.uint64((1 << n) - 1)

    # Reduction from the ring to the comparison domain is exact: 2^n divides 2^63.
    x_pub = open_pair(y + corr.alpha_shares) & dmask
    p = (x_pub >> np.uint64(n - 1)).astype(bool)
    x_low = x_pub & (dmask >> np.uint64(1))

    w = (corr.msb_shares + dcf_eval_batch(corr.keys, x_low)) & MASK
    # p = 1: 1{y >= 0} = w.  p = 0: 1 - w, party 0 holding the public 1.
    public_one = np.array([[1], [0]], dtype=np.uint64)
    return np.where(p, w, (public_one - w) & MASK)

