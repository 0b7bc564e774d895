"""Substreams: the integer seed derivation gives numpy's SeedSequence streams, bit for bit.

``substream(seed, label, *key)`` must be the generator that
``default_rng(SeedSequence(seed, spawn_key=(crc32(label), *key)))`` makes,
for every label of the key table in ``rng.py``'s docstring, seeds across
int64 and past it (three to eight 32-bit words: each word past the fourth
advances the cached pool's hash constant) and keys on both sides of
2**32. Importing the CLI must not import ``numpy.random``: the first
stream does.
"""

from __future__ import annotations

import re
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qatlab import rng
from qatlab.rng import substream

KEY_TABLE_LABELS = sorted(set(re.findall(r'\("(\w+)"', rng.__doc__)))
KEYS = st.integers(0, 2**32 - 1) | st.integers(2**32, 2**80) | st.just(0)
SEEDS = st.integers(0, 2**63 - 1) | st.integers(2**64, 2**256 - 1)


def numpy_stream(seed, label, *key):
    spawn_key = (zlib.crc32(label.encode("utf-8")), *key)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


def test_the_key_table_lists_the_training_and_oracle_labels():
    assert KEY_TABLE_LABELS == ["dither", "dither_block", "minibatch", "probe", "refresh"]


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.sampled_from(KEY_TABLE_LABELS) | st.text(max_size=8),
       st.lists(KEYS, max_size=3))
@example(0, "probe", [])
@example(2**32 - 1, "dither", [0])
@example(2**32, "dither_block", [2**32, 0])
@example(2**63 - 1, "minibatch", [2**64 - 1, 2**32 - 1, 7])
@example(2**96, "probe", [3])
@example(2**128 + 5, "refresh", [])
@example(2**160, "dither", [2**40, 1])
def test_substream_is_numpys_seed_sequence_stream(seed, label, key):
    got, want = substream(seed, label, *key), numpy_stream(seed, label, *key)
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random(3).tobytes() == want.random(3).tobytes()
    assert np.array_equal(got.integers(0, 2**62, 3), want.integers(0, 2**62, 3))


def test_substream_refuses_what_seed_sequence_refuses():
    for seed, key in ((-1, ()), (0, (-1,)), (3, (2, -2**40))):
        with pytest.raises(ValueError):
            numpy_stream(seed, "probe", *key)
        with pytest.raises(ValueError):
            substream(seed, "probe", *key)
    with pytest.raises(TypeError):
        numpy_stream(0, "probe", 1.5)
    with pytest.raises(TypeError):
        substream(0, "probe", 1.5)
    # the seed goes through int(), as it always has
    assert substream(7.9, "probe").random() == substream(7, "probe").random()


def test_importing_the_cli_leaves_numpy_random_unimported():
    code = "import qatlab.cli, sys; sys.exit('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "import qatlab.cli imported numpy.random"
