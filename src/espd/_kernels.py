"""Batch numerical kernels (numpy).

Three kernels carry the bulk work:

* ``level_map_batch`` -- the enhancement map applied to a whole array of
  ``(eta, dcr)`` states at once (the schedule search expands each frontier
  through it); it runs the scalar path's own code on arrays, so batch and
  scalar values are bit-identical;
* ``vote_mass``       -- exact enumeration of all ``2**m`` detector-outcome
  vectors for the k-of-m vote (verification oracle);
* ``mc_block``        -- one block of Monte Carlo trials on a counter-based
  splitmix64 stream.

The Monte Carlo stream is counter-indexed (draw ``i`` of a block is a pure
function of the block seed and ``i``), so tallies are bit-identical across
block scheduling and thread counts.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import dynamics

__all__ = [
    "backend_name",
    "mix64",
    "level_map_batch",
    "vote_mass",
    "mc_block",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U64 = np.uint64
_GOLDEN64 = _U64(_GOLDEN)
_MIX1_64 = _U64(_MIX1)
_MIX2_64 = _U64(_MIX2)
_INV53 = 2.0**-53


def backend_name() -> str:
    return "numpy"


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer (pure-python, for seeds)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def level_map_batch(
    eta: np.ndarray,
    d: np.ndarray,
    p: float,
    P: float,
    Q: float,
    n: int,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The enhancement map over equal-shape arrays of (eta, d) states."""
    eta = np.asarray(eta, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    return dynamics.level_figures(*dynamics.firing_probs(eta, d, P, Q), p, n, k)


@lru_cache(maxsize=None)
def _outcome_bits(m: int) -> tuple[np.ndarray, np.ndarray]:
    masks = np.arange(1 << m, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(m, dtype=np.uint32)[None, :]) & 1).astype(bool)
    pop = bits.sum(axis=1)
    bits.setflags(write=False)
    pop.setflags(write=False)
    return bits, pop


def vote_mass(probs: np.ndarray, k: int) -> float:
    """Probability that >= k of the independent detectors fire.

    Brute force over all 2**m outcome vectors; m <= ~17 is practical.
    """
    probs = np.asarray(probs, dtype=np.float64)
    m = probs.shape[0]
    bits, pop = _outcome_bits(m)
    pr = np.where(bits, probs[None, :], 1.0 - probs[None, :]).prod(axis=1)
    return float(pr[pop >= k].sum())


def _uniforms(state0: int, idx: np.ndarray) -> np.ndarray:
    z = _U64(state0) + (idx + _U64(1)) * _GOLDEN64
    z = (z ^ (z >> _U64(30))) * _MIX1_64
    z = (z ^ (z >> _U64(27))) * _MIX2_64
    z = z ^ (z >> _U64(31))
    return (z >> _U64(11)).astype(np.float64) * _INV53


def mc_block(
    state0: int,
    ntrials: int,
    n: int,
    k: int,
    p: float,
    p_pos: float,
    q_pos: float,
    p_sig: float,
    q_sig: float,
) -> tuple[int, int]:
    """One Monte Carlo block: (positives on signal trials, on vacuum trials).

    Each trial owns 3n + 2 counter-indexed draws: n module-survival draws,
    n + 1 detector draws for the signal trial, n + 1 for the vacuum trial.
    Unused draws (after an early loss) still occupy their slots, so draw
    ``i`` of trial ``t`` sits at a fixed counter.
    """
    per = 3 * n + 2
    idx = np.arange(ntrials * per, dtype=np.uint64).reshape(ntrials, per)
    u = _uniforms(state0, idx)

    fail = u[:, :n] >= p
    lost = fail.any(axis=1)
    first_fail = np.argmax(fail, axis=1)
    active = np.where(lost, first_fail + 1, n)

    cols = np.arange(n)
    aux_p = np.where(cols[None, :] < active[:, None], p_pos, q_pos)
    fires = (u[:, n : 2 * n] < aux_p).sum(axis=1)
    fires += u[:, 2 * n] < np.where(lost, q_sig, p_sig)
    de_count = int((fires >= k).sum())

    vac_fires = (u[:, 2 * n + 1 : 3 * n + 1] < q_pos).sum(axis=1)
    vac_fires += u[:, 3 * n + 1] < q_sig
    dcr_count = int((vac_fires >= k).sum())
    return de_count, dcr_count
