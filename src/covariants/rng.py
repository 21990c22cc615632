"""Deterministic named RNG substreams.

All randomness in the package flows from one integer seed through named
substreams, so adding a check never perturbs the samples another check
draws.  The derivation is a stable hash (not Python's salted ``hash``), so
identical configs reproduce byte-identical reports across runs and machines.

Evaluation points are uniform nonzero residues mod p (``residue_points``)
for minimality's modular evaluation ranks.  Exact relation spaces and the
generated and invariant dimensions draw nothing: they are kernels, ranks
and weight counts.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np


def substream(seed: int, name: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def residue_points(seed: int, name: str, nvars: int, npoints: int, p: int) -> np.ndarray:
    """``npoints`` random points of (F_p^*)^nvars as an (nvars, npoints) int64
    array; column k is the k-th point.

    All entries come from one ``randbytes`` call on ``substream(seed, name)``:
    each is 1 + (a 64-bit word mod p - 1), so it lies in [1, p) and is
    uniform there up to a relative bias below p / 2**64.
    """
    words = np.frombuffer(substream(seed, name).randbytes(8 * nvars * npoints), dtype="<u8")
    residues = words % np.uint64(p - 1) + np.uint64(1)
    return residues.astype(np.int64).reshape(nvars, npoints)
