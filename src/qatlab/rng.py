"""Named, counter-derived random substreams.

A single master seed spawns independent generators keyed by a label
("probe", "dither", "minibatch", ...) plus integer indices, so adding
draws to one stream never perturbs another.

Keys of the training and oracle draws (g is the group; the trainer's
draw_key and seed_tag are the step). The golden digests pin this layout:

  ("probe", draw_key, g)    gain-update probes of group g
  ("dither", draw_key, g)   per-probe dither (dither_update) and forward
                            dither (draw_dither, key = seed_tag) of group g
  ("dither", g)             Monte-Carlo oracles mean_field(_sensitivity)
  ("minibatch", step), ("refresh", step)
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["substream"]


def _label_code(label: str) -> int:
    return zlib.crc32(label.encode("utf-8"))


def substream(seed: int, label: str, *key: int) -> np.random.Generator:
    """Return a generator for the (label, *key) stream of a master seed.

    Derivation is counter-based: the stream depends only on the seed,
    the label and the integer key, never on draw order elsewhere.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(_label_code(label), *key))
    return np.random.default_rng(ss)
