"""Seed-stream plumbing.

Reproducibility contract: everything randomized in this package is driven by
a 64-bit master seed plus an index (trial number, matrix row, sweep job).
Stream ``i`` is ``SeedSequence(master, spawn_key=(i,))``, which numpy
guarantees equals ``SeedSequence(master).spawn(n)[i]``.  Deleting or
reordering trials therefore never changes the randomness of other trials,
and a single trial can be replayed in isolation.

``trial_rng`` builds these streams without building a ``SeedSequence`` per
row.  SeedSequence hashes the seed's 32-bit words into a 4-word pool and then
the spawn index into that pool; the first part depends on the seed alone and
is cached per seed, and the index part plus the 8 output words of
``generate_state(4, uint64)`` (the PCG64 seed) are computed for a block of 64
indices at once in numpy ``uint32`` arithmetic and cached per block.  Each
row is then ``Generator(PCG64(...))`` fed those words, bit-identical to
``default_rng(SeedSequence(seed, spawn_key=(i,)))``; tests compare the two
over seeds up to 2**200 and indices up to 2**33.  A row of a cached block
costs about a fifth of the SeedSequence path (3-5 us against 17-26 us on a
2-vCPU Xeon VM, numpy 2.4); the first row of a new seed costs about twice
that path, and the first row of each further block about 1.5 times.
``rng.bit_generator.seed_seq`` answers ``entropy``, ``spawn_key``,
``spawn()`` and ``generate_state()`` as that SeedSequence does, building it
only when asked.  A negative seed or index, an index of 2**32 or more (a
multi-word spawn key) and any non-integer input take the SeedSequence path
itself: an index of 2**32 or more gives its SeedSequence stream, and the
others raise InvalidParameterError from ``_seed_sequence``, which builds
every SeedSequence the library seeds from (``master_rng`` and
``experiments._child_seed`` too).

Short fixed-length walks need no Generator per row.  ``_block_outputs``
returns the raw outputs 1..k of a run of rows in one numpy pass: after
seeding, PCG64's state after j steps is a closed-form jump from the row's
seed words (O'Neill, HMC-CS-2014-0905), so each output is two 128-bit
products, a sum and the XSL-RR output function over uint64 arrays.
``_block_draws`` turns them into what each row's ``integers(width)`` and
``random(steps)`` give, with numpy's algorithms (for ``integers``, Lemire's
bounded draw, ACM TOMACS 2019), and replays through ``trial_rng`` the rare
rows that draw might reject.  Their domain (``_in_block_domain``) is the cached
path's: a seed of 0 or more and indices below 2**32.  ``trial_rng`` stays
the oracle: tests compare every column with that row's stream.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISpawnableSeedSequence

from .errors import _as_count

__all__ = ["trial_rng", "master_rng"]

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_POOL = 4
_BLOCK = 64
# generate_state's constants: word j is xor'ed with _B[j], multiplied by _B[j+1].
_B = [_INIT_B * pow(_MULT_B, j, 2**32) & _MASK32 for j in range(9)]
_OUT_XOR = np.array(_B[:8], dtype=np.uint32)
_OUT_MUL = np.array(_B[1:], dtype=np.uint32)
# PCG64's LCG multiplier a (numpy's pcg64.h) and the jump table of
# _block_outputs: output j (1-based) of a freshly seeded PCG64 with
# initstate X and increment inc comes from the state
# a**(j+1) * X + c(j+2) * inc mod 2**128, where c(j) = sum(a**t, t < j).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MAX_OUTPUTS = 256


def _jump_table(count: int) -> tuple[np.ndarray, ...]:
    """(hi, lo) words of a**(j+1) and c(j+2) for j = 1..count, as uint64."""
    mod = 1 << 128
    power, total = _PCG_MULT**2 % mod, (1 + _PCG_MULT + _PCG_MULT**2) % mod
    rows = []
    for _ in range(count):
        rows.append((power >> 64, power & 2**64 - 1, total >> 64, total & 2**64 - 1))
        power = power * _PCG_MULT % mod
        total = (total + power) % mod
    return tuple(np.array(col, dtype=np.uint64) for col in zip(*rows))


_JUMPS = _jump_table(_MAX_OUTPUTS)


def _seed_sequence(seed, *key) -> SeedSequence:
    """``SeedSequence(seed, spawn_key=key)``, after checking that the seed
    and each key word are integers of 0 or more."""
    _as_count("seed", seed, 0)
    for i in key:
        _as_count("index", i, 0)
    return SeedSequence(seed, spawn_key=key)


def master_rng(seed: int) -> np.random.Generator:
    """Generator for whole-run draws (not tied to a trial index)."""
    return np.random.default_rng(_seed_sequence(seed))


@functools.lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The part of ``SeedSequence(seed, spawn_key=(i,))`` that ignores ``i``.

    Its entropy is the seed's 32-bit words, zero-padded to the pool size
    because a spawn key follows, and then the index word.  The pool after
    every word but the last is the pool of a SeedSequence over the padded
    words alone; by then ``mix_entropy`` has made 4 hashes per word, so the
    index word is hashed into pool word k with xor constant
    ``INIT_A * MULT_A**(4*len(words) + k)`` and the next power as multiplier.
    Returns ``MIX_MULT_L * pool`` and those constants, each repeated for the
    8 output words (``generate_state`` cycles the pool twice).
    """
    words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words))
    pool = SeedSequence(np.array(words, dtype=np.uint32)).pool * _MIX_MULT_L
    c = [_INIT_A * pow(_MULT_A, 4 * len(words), 2**32) & _MASK32]
    for _ in range(_POOL):
        c.append(c[-1] * _MULT_A & _MASK32)
    return (np.concatenate((pool, pool)),
            np.array(c[:-1] * 2, dtype=np.uint32), np.array(c[1:] * 2, dtype=np.uint32))


def _index_state(seed: int, first: int, count: int) -> np.ndarray:
    """PCG64 seed words, (count, 4) uint64, for indices first .. first+count-1.

    SeedSequence's ``hashmix`` and ``mix`` of the index word and
    ``generate_state(4, uint64)``, on uint32 arrays that wrap as its C does.
    """
    pool_l, xor, mul = _seed_pool(seed)
    idx = np.arange(first, first + count, dtype=np.uint32)
    v = (idx[:, None] ^ xor) * mul
    v ^= v >> 16
    out = pool_l - _MIX_MULT_R * v
    out ^= out >> 16
    out ^= _OUT_XOR
    out *= _OUT_MUL
    out ^= out >> 16
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.lru_cache(maxsize=64)
def _block_state(seed: int, block: int) -> np.ndarray:
    """The seed words of indices block*64 .. block*64+63, cached for trial_rng."""
    state = _index_state(seed, block * _BLOCK, _BLOCK)
    state.flags.writeable = False
    return state


def _in_block_domain(seed, base: int, rows: int) -> bool:
    """Whether rows base .. base+rows-1 of ``seed`` are in the stream cache's
    domain, where :func:`_block_outputs` may replace ``trial_rng``."""
    return (isinstance(seed, (int, np.integer)) and isinstance(base, (int, np.integer))
            and seed >= 0 and base >= 0 and base + rows <= _MASK32 + 1)


def _mulhi64(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """High words of the 128-bit products of uint64 arrays, from 32-bit limbs
    (Hacker's Delight 8-2; no partial sum passes 2**64 - 1)."""
    x0, x1, y0, y1 = x & _MASK32, x >> 32, y & _MASK32, y >> 32
    t = x1 * y0 + (x0 * y0 >> 32)
    w = (t & _MASK32) + x0 * y1
    return x1 * y1 + (t >> 32) + (w >> 32)


def _block_outputs(seed: int, base: int, rows: int, k: int) -> np.ndarray:
    """Raw outputs 1..k, (k, rows) uint64, of the streams
    ``trial_rng(seed, base + r)``: column r is what that stream's
    ``bit_generator.random_raw(k)`` gives.

    PCG64 seeding leaves row r in the state ``a * X + (a + 1) * inc``, and
    each output steps first, so output j is the XSL-RR of the jump
    ``a**(j+1) * X + c(j+2) * inc``: two 128-bit products and a sum, in
    uint64 words that wrap mod 2**64.  Only the carry word of the low-word
    products needs 32-bit limbs.  Needs :func:`_in_block_domain` and
    ``k <= _MAX_OUTPUTS``.
    """
    xh, xl, sh, sl = _index_state(int(seed), base, rows).T.copy()
    ih, il = sh << 1 | sl >> 63, sl << 1 | 1  # inc = initseq << 1 | 1
    ah, al, ch, cl = (col[:k, None] for col in _JUMPS)
    lo_x = al * xl
    lo = lo_x + cl * il
    hi = (ah * xl + al * xh + _mulhi64(al, xl) + ch * il + cl * ih
          + _mulhi64(cl, il) + (lo < lo_x))
    xor = hi ^ lo
    rot = hi >> 58
    return xor >> rot | xor << (64 - rot)  # numpy shifts by 64 give 0


def _block_draws(seed: int, base: int, width: int, U: np.ndarray) -> np.ndarray:
    """What ``integers(width)`` and then ``random(steps)`` give on the streams
    ``trial_rng(seed, base + r)``: returns the integers, (rows,) int64, and
    fills ``U`` (steps, rows) with the doubles.

    ``integers(1)`` draws nothing.  Otherwise numpy draws with Lemire's
    method on the low word of output 1, taking the high word of
    ``m = low32(o1) * width``.  ``random()`` is ``(o >> 11) * 2**-53`` of
    each later output.  A row whose low word of ``m`` is below ``width``
    might be rejected and redrawn from the output's high word (a chance
    below width / 2**32), so it replays through ``trial_rng``.  Needs
    :func:`_in_block_domain` and ``width < 2**32``.
    """
    steps, rows = U.shape
    raw = _block_outputs(seed, base, rows, steps + (width > 1))
    if width == 1:
        np.multiply(raw >> 11, 2.0**-53, out=U)
        return np.zeros(rows, dtype=np.int64)
    m = (raw[0] & _MASK32) * np.uint64(width)
    picks = (m >> 32).astype(np.int64)
    np.multiply(raw[1:] >> 11, 2.0**-53, out=U)
    for r in np.flatnonzero((m & _MASK32) < width).tolist():
        rng = trial_rng(seed, base + r)
        picks[r] = rng.integers(width)
        U[:, r] = rng.random(steps)
    return picks


class _RowSeedSequence(ISpawnableSeedSequence):
    """``SeedSequence(seed, spawn_key=(index,))`` with its PCG64 words precomputed."""

    __slots__ = ("_seed", "_index", "_words", "_real")

    def __init__(self, seed, index, words):
        self._seed, self._index, self._words, self._real = seed, index, words, None

    def _seq(self) -> SeedSequence:
        if self._real is None:
            self._real = SeedSequence(self._seed, spawn_key=(self._index,))
        return self._real

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:
            return self._words.copy()
        return self._seq().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._seq().spawn(n_children)

    entropy = property(lambda self: self._seq().entropy)
    spawn_key = property(lambda self: self._seq().spawn_key)
    pool_size = property(lambda self: self._seq().pool_size)
    n_children_spawned = property(lambda self: self._seq().n_children_spawned)

    def __reduce__(self):
        return self._seq().__reduce__()


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one trial/row; replayable without its batch."""
    if (isinstance(seed, (int, np.integer)) and isinstance(index, (int, np.integer))
            and seed >= 0 and 0 <= index <= _MASK32):
        s, i = int(seed), int(index)
        words = _block_state(s, i // _BLOCK)[i % _BLOCK]
        return Generator(PCG64(_RowSeedSequence(seed, index, words)))
    return np.random.default_rng(_seed_sequence(seed, index))
