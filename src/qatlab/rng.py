"""Named, counter-derived random substreams.

A single master seed spawns independent generators keyed by a label
("probe", "dither", "minibatch", ...) plus integer indices, so adding
draws to one stream never perturbs another.

Keys of the training and oracle draws (the trainer's draw_key is the
step; the seed is the master seed). A draw is one block over all
weights, whatever the group layout. The golden digests pin this layout:

  ("probe", draw_key)         (num_probes, dim) normal gain-update probes
                              of the hard modes; dither mode draws none
  ("dither_block", draw_key)  (num_probes, dim) per-probe dither rows of
                              dither_update, or the (dim,) forward dither
                              of draw_dither
  ("dither",)                 Monte-Carlo oracle mean_field, one
                              (n_samples, dim) stream drawn in row blocks
  ("minibatch", step), ("refresh", step)

The (label, *key) stream of a seed is numpy's
``default_rng(SeedSequence(seed, spawn_key=(crc32(label), *key)))``, bit
for bit. The pool after the (seed, label) words is numpy's own
``SeedSequence(seed, spawn_key=(crc32(label),)).pool``, cached with the
hash constant that follows it. The rest is done per call with Python
integers by SeedSequence's own hash, numpy's Python-level path being the
slower part of making a stream: each key's 32-bit words (a key of 0 is
one zero word) are mixed into all four pool words, then the pool yields
eight 32-bit words, paired little-endian into PCG64's four uint64 seed
words. numpy.random is imported with the first stream, not with this
module.
"""

from __future__ import annotations

import functools
import operator
import zlib

import numpy as np

__all__ = ["substream"]

_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _words(n: int) -> list[int]:
    """A non-negative integer's little-endian 32-bit words; 0 is one zero word."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK]
    while n := n >> 32:
        words.append(n & _MASK)
    return words


def _mix_in(pool: list[int], words: list[int], const: int) -> int:
    """Mix each word into every pool word, in place; returns the hash constant.

    SeedSequence's hashmix and mix, inlined: this runs for every stream.
    """
    for word in words:
        for dst in range(_POOL):
            value = word ^ const
            const = const * _MULT_A & _MASK
            value = value * const & _MASK
            value ^= value >> 16
            value = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * value) & _MASK
            pool[dst] = value ^ value >> 16
    return const


@functools.lru_cache(maxsize=64)
def _label_pool(seed: int, label: str) -> tuple[tuple[int, ...], int]:
    """numpy's pool and hash constant after the seed's and the label's entropy words."""
    from numpy.random import SeedSequence

    pool = SeedSequence(seed, spawn_key=(zlib.crc32(label.encode("utf-8")),)).pool
    # numpy's hashmix calls, each advancing the constant: 4 to fill the pool, 12 to
    # cross-mix it, then 4 for each word past the first four (seed words, then the label)
    n_hashes = _POOL * (max(len(_words(seed)), _POOL) + 1)
    return tuple(pool.tolist()), _INIT_A * pow(_MULT_A, n_hashes, 2**32) & _MASK


@functools.cache
def _state_consts(n_words: int) -> tuple[tuple[int, ...], ...]:
    """generate_state's constants of each of its first n_words uint64 words.

    A uint64 is a little-endian pair of 32-bit words; the i-th 32-bit word
    hashes pool word i % 4 with the i-th (xor, multiplier) hash constants.
    """
    consts, const = [], _INIT_B
    for i in range(2 * n_words):
        consts += [i % _POOL, const, const := const * _MULT_B & _MASK]
    return tuple(tuple(consts[k:k + 6]) for k in range(0, len(consts), 6))


class _SeedState:
    """A mixed SeedSequence pool whose ``generate_state`` is SeedSequence's, for PCG64."""

    __slots__ = ("pool",)

    def __init__(self, pool: list[int]) -> None:
        self.pool = pool

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
            raise ValueError("only uint64 state words are made")
        pool, state = self.pool, []
        for i, x_lo, m_lo, j, x_hi, m_hi in _state_consts(n_words):
            lo = (pool[i] ^ x_lo) * m_lo & _MASK
            hi = (pool[j] ^ x_hi) * m_hi & _MASK
            state.append(lo ^ lo >> 16 | (hi ^ hi >> 16) << 32)
        return np.array(state, dtype=np.uint64)


@functools.cache
def _generator_types() -> tuple[type, type]:
    # numpy.random is imported on the first stream, not with qatlab
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedState)
    return Generator, PCG64


def substream(seed: int, label: str, *key: int) -> np.random.Generator:
    """Return a generator for the (label, *key) stream of a master seed.

    Derivation is counter-based: the stream depends only on the seed,
    the label and the integer key, never on draw order elsewhere. A
    negative seed or key raises ValueError, a non-integer key TypeError.
    """
    pool, const = _label_pool(int(seed), label)
    pool = list(pool)
    _mix_in(pool, [w for k in key for w in _words(operator.index(k))], const)
    generator, pcg64 = _generator_types()
    return generator(pcg64(_SeedState(pool)))
