"""Reproducible substreams for Monte Carlo work.

Every replication draws from its own generator keyed by
``(seed, stream id, replication index)``, so estimates are independent of
evaluation order and bit-for-bit reproducible for a fixed seed.  The
generator of key ``(seed, stream, r)`` is the one
``numpy.random.default_rng(numpy.random.SeedSequence([seed, stream, r]))``
returns: a ``PCG64`` in the same state.

:func:`substream` builds the generators of a whole range of replication
indices at once.  ``SeedSequence`` hashes its entropy words with O'Neill's
``seed_seq`` mixing, which is plain uint32 arithmetic, so here it runs on
every key of the range as arrays; each ``PCG64`` is then seeded from its
key's precomputed state words.  ``numpy.random`` is imported on first use,
so importing this module does not load it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: replications simulated together, as the rows of one array; bounds the
#: memory of every estimator at any replication count
_ROWS = 64
_MASK32 = 0xFFFF_FFFF
#: ``SeedSequence``'s default pool size, in uint32 words
_POOL = 4
#: ``PCG64`` asks its seed sequence for this many uint64 words
_STATE_WORDS = 4
_XSHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01_F9DD), np.uint32(0x4973_F715)


def _hash_consts(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of ``n`` successive hash steps as columns: xor ``c_k``, multiply ``c_{k+1}``.

    ``SeedSequence`` keeps one running constant ``c``; a hash step xors the
    value with ``c``, sets ``c *= mult`` and multiplies the value by the new
    ``c``.  The sequence does not depend on the data.
    """
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


#: ``mix_entropy``: one hash step per pool slot, one per ordered pair of
#: distinct slots, then one per slot for each entropy word beyond the pool
_MIX_XOR, _MIX_MUL = _hash_consts(0x43B0_D7E5, 0x931E_8875, 256)
#: ``generate_state``: one hash step per uint32 half of the state words
_OUT_XOR, _OUT_MUL = _hash_consts(0x8B51_F9DD, 0x58F3_8DED, 2 * _STATE_WORDS)
_MAX_ENTROPY = _POOL + (len(_MIX_XOR) - _POOL * _POOL) // _POOL


def _hash(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``hashmix``, one hash step per row of ``xor`` and ``mul``."""
    value = (value ^ xor) * mul
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``mix`` of pool words ``x`` with hashed words ``y``."""
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _XSHIFT)


def _int_words(n: int, name: str) -> list[int]:
    """``n`` as little-endian uint32 words, as ``SeedSequence`` splits an integer."""
    if n < 0:
        raise ValueError(f"{name} must be nonnegative")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _state_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy words).generate_state(4, uint64)`` for every column.

    ``entropy`` is ``(words, keys)`` uint32; the result is ``(keys, 4)``
    uint64, one key's state words per row.  The hash steps that touch one
    source slot touch distinct destination slots, so each runs on all of
    them at once.
    """
    words, keys = entropy.shape
    if words > _MAX_ENTROPY:
        raise ValueError(f"keys longer than {_MAX_ENTROPY} uint32 words are not supported")
    head = np.zeros((_POOL, keys), dtype=np.uint32)
    head[: min(words, _POOL)] = entropy[:_POOL]
    pool = _hash(head, _MIX_XOR[:_POOL], _MIX_MUL[:_POOL])
    k = _POOL
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        steps = slice(k, k + len(dst))
        pool[dst] = _mix(pool[dst], _hash(pool[src], _MIX_XOR[steps], _MIX_MUL[steps]))
        k += len(dst)
    for word in entropy[_POOL:]:
        steps = slice(k, k + _POOL)
        pool = _mix(pool, _hash(word, _MIX_XOR[steps], _MIX_MUL[steps]))
        k += _POOL
    halves = _hash(pool[np.arange(2 * _STATE_WORDS) % _POOL], _OUT_XOR, _OUT_MUL)
    halves = halves.astype(np.uint64)
    return np.ascontiguousarray((halves[0::2] | (halves[1::2] << np.uint64(32))).T)


@functools.cache
def _seeder():
    """A ``Generator`` factory over ``PCG64`` from precomputed state words."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        """A seed sequence that hands ``PCG64`` one key's hashed state words."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _STATE_WORDS or np.dtype(dtype) != np.uint64:
                raise ValueError("holds exactly the 4 uint64 words PCG64 asks for")
            return self.words

    return lambda words: Generator(PCG64(StateWords(words)))


def substream(seed: int, stream: int, replications: range) -> list[np.random.Generator]:
    """One estimator's generators for the replication indices in ``replications``.

    The generator of index ``r`` is that of key ``(seed, stream, r)``.
    Indices must lie in ``[0, 2**32)``, one entropy word each.
    """
    prefix = _int_words(int(seed), "seed") + _int_words(int(stream), "stream")
    if not replications:
        return []
    if min(replications[0], replications[-1]) < 0:
        raise ValueError("replication indices must be nonnegative")
    if max(replications[0], replications[-1]) > _MASK32:
        raise ValueError("replication indices must be below 2**32")
    entropy = np.empty((len(prefix) + 1, len(replications)), dtype=np.uint32)
    entropy[:-1] = np.array(prefix, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(replications.start, replications.stop, replications.step)
    seeded = _seeder()
    return [seeded(words) for words in _state_words(entropy)]


def row_chunks(replications: int):
    """Replication indices ``0 .. replications - 1`` in ranges of at most ``_ROWS``."""
    return (range(lo, min(lo + _ROWS, replications)) for lo in range(0, replications, _ROWS))


def mean_se(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (ddof=1)."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least two replications for a standard error")
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))
