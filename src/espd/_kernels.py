"""Batch numerical kernels (numpy).

Three kernels carry the bulk work:

* ``level_map_batch`` -- the enhancement map applied to a whole array of
  ``(eta, dcr)`` states at once, for the given vote thresholds of one
  ``n`` (the schedule search calls it once per block of parents and ``n``;
  at the last level a call gets only the parents and thresholds the
  search's screen passes); it runs the scalar path's own code on arrays,
  so batch and scalar values are bit-identical;
* ``vote_mass``       -- exact enumeration of all ``2**m`` detector-outcome
  vectors for the k-of-m vote (verification oracle), their probabilities
  built as a product tree;
* ``mc_block``        -- one block of Monte Carlo trials on a counter-based
  splitmix64 stream: ``n + 2`` draws per trial, one for the loss position
  and one per detector, the detector draws shared by the signal and the
  vacuum trial.

The Monte Carlo stream is counter-indexed (draw ``i`` of a block is a pure
function of the block seed and ``i``), so tallies are bit-identical across
block scheduling, thread counts, the chunks a block is cut into and the
layout a chunk holds its draws in: column-major, one column per trial, so
the tally runs as a fixed number of array operations along the draw axis.
"""

from __future__ import annotations

import math

import numpy as np

from . import binomial, dynamics

__all__ = [
    "backend_name",
    "mix64",
    "level_map_batch",
    "vote_mass",
    "mc_block",
    "threshold53",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U64 = np.uint64
_GOLDEN64 = _U64(_GOLDEN)
_MIX1_64 = _U64(_MIX1)
_MIX2_64 = _U64(_MIX2)
_TWO53 = 2.0**53

# Draws per chunk of mc_block: its uint64 buffers of this size (512 KiB
# each) stay in cache, where a whole block of (n + 2)-draw trials would not.
# At 2 threads on n = 12 blocks no size from 2**15 to 2**18 was clearly
# faster than 2**16, so 2**16 stays.
MC_CHUNK_DRAWS = 1 << 16


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
    ks,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The enhancement map over equal-shape arrays of (eta, d) states.

    One ``(de, dcr)`` pair of arrays per vote threshold in ``ks``, in
    order, from one pass of :func:`espd.dynamics.level_figures`.
    """
    eta = np.asarray(eta, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    return dynamics.level_figures(*dynamics.firing_probs(eta, d, P, Q), p, n, ks)


def vote_mass(probs: np.ndarray, k: int) -> float:
    """Probability that >= k of the independent detectors fire.

    Brute force over all 2**m outcome vectors; m <= ~17 is practical.  The
    outcome probabilities grow as a product tree in detector order: after
    detector i, outcome ``b`` (bit j set when detector j fires) holds the
    product of its first i + 1 factors, multiplied in index order.
    """
    pr = np.ones(1)
    pop = np.zeros(1, dtype=np.intp)
    for x in np.asarray(probs, dtype=np.float64).tolist():
        pr = np.concatenate((pr * (1.0 - x), pr * x))
        pop = np.concatenate((pop, pop + 1))
    return float(pr[pop >= k].sum())


def threshold53(x: float) -> int:
    """``ceil(x * 2**53)`` clamped to ``[0, 2**53]``.

    For an integer ``m < 2**53``, ``m * 2**-53 < x`` holds exactly when
    ``m < threshold53(x)``: both scalings by a power of two are exact, and
    ``m < y`` for an integer ``m`` means ``m < ceil(y)``.
    """
    return min(max(math.ceil(x * _TWO53), 0), 1 << 53)


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

    Each trial owns n + 2 counter-indexed draws; draw ``i`` of trial ``t``
    sits at counter ``t * (n + 2) + i``.  Draw 0 is the loss position
    ``u``: the photon reaches auxiliary ``j`` (0-based) iff ``u < p**j``,
    and reaching ``j = n`` means it survived every module.  Draws 1..n are
    the auxiliaries and draw n + 1 the signal detector.  On the signal
    trial a detector compares its draw against its firing probability
    given the photon (``p_pos`` or ``p_sig``) if reached, else against the
    dark one (``q_pos`` or ``q_sig``); the vacuum trial compares the same
    n + 1 draws against the dark ones.  Each tally thus still draws every
    detector with its own probability; only the two tallies are correlated.

    The trials run in chunks of ``MC_CHUNK_DRAWS // (n + 2)`` trials; the
    splitmix64 steps of a chunk run in place in two preallocated uint64
    buffers, so memory stays flat in ``ntrials`` and ``n``.  A chunk holds
    its draws column-major: draw ``i`` of the chunk's trial ``t`` sits at
    ``z[i, t]``, so a trial's reach mask and firing counts are reductions
    along axis 0 over all of the chunk's trials at once.  A draw is the
    53-bit integer ``m = z >> 11``, compared against ``threshold53(x)``
    instead of ``m * 2**-53`` against ``x``, which is the same test
    exactly; ``p**0 = 1`` gives threshold ``2**53``, which every draw is
    below.  None of these steps moves a draw or changes a comparison, so
    the tallies are those of converting the whole block to floats at once.
    """
    per = n + 2
    chunk = MC_CHUNK_DRAWS // per  # trials

    def column(xs):
        return np.array([threshold53(x) for x in xs], dtype=np.uint64)[:, None]

    reach_t = column(binomial.powers(p, n))
    hit_t = column([p_pos] * n + [p_sig])
    dark_t = column([q_pos] * n + [q_sig])
    # counter (t0 + t) * per + i of a chunk adds (i + t * per) * golden to
    # state0 + (t0 * per + 1) * golden (mod 2**64)
    draw_steps = np.arange(per, dtype=np.uint64)[:, None] * _GOLDEN64
    trial_steps = np.arange(chunk, dtype=np.uint64) * _U64(per * _GOLDEN & _MASK64)
    z = np.empty(chunk * per, dtype=np.uint64)
    tmp = np.empty_like(z)
    de_count = dcr_count = 0
    for t0 in range(0, ntrials, chunk):
        size = min(chunk, ntrials - t0)
        zc, tc = z[: size * per].reshape(per, size), tmp[: size * per].reshape(per, size)
        base = draw_steps + _U64((state0 + (t0 * per + 1) * _GOLDEN) & _MASK64)
        np.add(base, trial_steps[:size], out=zc)
        for shift, mult in ((30, _MIX1_64), (27, _MIX2_64)):
            np.right_shift(zc, _U64(shift), out=tc)
            np.bitwise_xor(zc, tc, out=zc)
            np.multiply(zc, mult, out=zc)
        np.right_shift(zc, _U64(31), out=tc)
        np.bitwise_xor(zc, tc, out=zc)
        np.right_shift(zc, _U64(11), out=zc)

        det = zc[1:]
        dark = det < dark_t
        # signal firings: the hit comparison where reached, else the dark one
        fires = det < hit_t
        fires ^= dark
        fires &= zc[0] < reach_t
        fires ^= dark
        de_count += int(np.count_nonzero(fires.sum(axis=0, dtype=np.uint8) >= k))
        dcr_count += int(np.count_nonzero(dark.sum(axis=0, dtype=np.uint8) >= k))
    return de_count, dcr_count
