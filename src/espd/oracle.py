"""Independent verification oracles for one enhancement level.

Two routes re-derive the level figures straight from the vote semantics,
bypassing the closed-form tail algebra:

* :func:`enumerate_level` -- exact: for every loss scenario, enumerate all
  ``2**(n+1)`` detector-outcome vectors and accumulate the mass with at
  least ``k`` positives;
* :func:`mc_level` -- stochastic: sample loss positions and detector
  outcomes on a counter-based splitmix64 stream, reproducible for a fixed
  ``(seed, trials)`` regardless of block scheduling or thread count.

Both compute the per-detector probabilities from scratch so the only shared
ingredient with the closed form is the model definition itself.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dynamics import ComponentParams, DetectorPerformance, LevelConfig, check_int, level_map

__all__ = [
    "ENUM_MAX_N",
    "MC_BLOCK_TRIALS",
    "MC_MAX_THREADS",
    "OracleReport",
    "enumerate_level",
    "mc_level",
    "oracle_report",
]

# 2**(n+1) outcome vectors per scenario; 16 keeps the scan comfortably fast.
ENUM_MAX_N = 16

# Fixed block size: trial t of block b consumes draws indexed from the
# block's own substream, so the partition never affects the tallies.
MC_BLOCK_TRIALS = 65536

# Most pool threads mc_level accepts; each one holds a block's chunk buffers.
MC_MAX_THREADS = 256


@dataclass(frozen=True)
class OracleReport:
    """Closed form vs. enumeration vs. Monte Carlo for one level map."""

    closed_de: float
    closed_dcr: float
    enum_de: float
    enum_dcr: float
    mc_de: float
    mc_dcr: float
    mc_stderr_de: float
    mc_stderr_dcr: float
    trials: int
    seed: int
    enum_abs_err_de: float
    enum_abs_err_dcr: float


def _scenario_probs(det: DetectorPerformance, params: ComponentParams):
    # Per-detector firing probabilities, derived here from first principles
    # rather than imported from the closed-form module.
    eta, d = det.eta, det.dcr
    p_pos = params.P_act * eta * (1.0 - d) + d
    q_pos = params.Q_err * eta * (1.0 - d) + d
    p_sig = eta + (1.0 - eta) * d
    q_sig = d
    return p_pos, q_pos, p_sig, q_sig


def enumerate_level(
    det: DetectorPerformance, params: ComponentParams, config: LevelConfig
) -> tuple[float, float]:
    """Exact (de, dcr) of one level by brute-force outcome enumeration.

    Signal branch: the photon survives all n modules with weight ``p**n``
    (all auxiliaries at ``p_pos``, signal detector at ``p_sig``) or is lost
    right after module i with weight ``p**(i-1) * (1-p)`` (auxiliaries 1..i
    at ``p_pos``, the rest at ``q_pos``, signal detector at ``q_sig``).
    Vacuum branch: a single scenario, all auxiliaries at ``q_pos``.
    """
    n, k = config.n, config.k
    if n > ENUM_MAX_N:
        raise ValueError(f"enumeration supports n <= {ENUM_MAX_N}, got n={n}")
    p = params.p
    p_pos, q_pos, p_sig, q_sig = _scenario_probs(det, params)

    probs = np.empty(n + 1, dtype=np.float64)
    de = 0.0
    weight = 1.0
    for i in range(1, n + 1):
        probs[:i] = p_pos
        probs[i:n] = q_pos
        probs[n] = q_sig
        de += weight * (1.0 - p) * _kernels.vote_mass(probs, k)
        weight *= p
    probs[:n] = p_pos
    probs[n] = p_sig
    de += weight * _kernels.vote_mass(probs, k)

    probs[:n] = q_pos
    probs[n] = q_sig
    dcr = _kernels.vote_mass(probs, k)
    return min(de, 1.0), min(dcr, 1.0)


def mc_level(
    det: DetectorPerformance,
    params: ComponentParams,
    config: LevelConfig,
    trials: int,
    seed: int,
    threads: int = 1,
) -> tuple[float, float, float, float]:
    """Monte Carlo (de_hat, dcr_hat, stderr_de, stderr_dcr).

    Trials are partitioned into fixed-size blocks; block b draws from the
    substream seeded by ``mix64(seed XOR b)``.  Each of
    ``w = min(threads, blocks)`` workers runs blocks i, i + w, ... in turn
    and no block list is built; integer tallies sum exactly in any order,
    so the output depends only on (seed, trials).  The seed must lie in
    ``[0, 2**64)``, so distinct seeds never share a stream; at most
    ``MC_MAX_THREADS`` pool threads run the blocks.
    """
    check_int("trials", trials, 1)
    check_int("threads", threads, 1, MC_MAX_THREADS)
    check_int("seed", seed, 0, (1 << 64) - 1)
    n, k = config.n, config.k
    p = params.p
    p_pos, q_pos, p_sig, q_sig = _scenario_probs(det, params)

    nblocks = -(-trials // MC_BLOCK_TRIALS)
    workers = min(threads, nblocks)

    def run_blocks(first):
        de = dcr = 0
        for b in range(first, nblocks, workers):
            size = min(MC_BLOCK_TRIALS, trials - b * MC_BLOCK_TRIALS)
            state0 = _kernels.mix64(seed ^ b)
            c = _kernels.mc_block(state0, size, n, k, p, p_pos, q_pos, p_sig, q_sig)
            de += c[0]
            dcr += c[1]
        return de, dcr

    with ThreadPoolExecutor(max_workers=workers) as pool:
        counts = list(pool.map(run_blocks, range(workers)))

    de_count = sum(c[0] for c in counts)
    dcr_count = sum(c[1] for c in counts)
    de_hat = de_count / trials
    dcr_hat = dcr_count / trials
    stderr_de = math.sqrt(de_hat * (1.0 - de_hat) / trials)
    stderr_dcr = math.sqrt(dcr_hat * (1.0 - dcr_hat) / trials)
    return de_hat, dcr_hat, stderr_de, stderr_dcr


def oracle_report(
    det: DetectorPerformance,
    params: ComponentParams,
    config: LevelConfig,
    trials: int,
    seed: int,
    threads: int = 1,
) -> OracleReport:
    """Run all three routes for one level map and assemble the comparison."""
    # Monte Carlo first: its count checks then reject bad input before any work
    mc_de, mc_dcr, se_de, se_dcr = mc_level(det, params, config, trials, seed, threads)
    closed = level_map(det, params, config)
    enum_de, enum_dcr = enumerate_level(det, params, config)
    return OracleReport(
        closed_de=closed.eta,
        closed_dcr=closed.dcr,
        enum_de=enum_de,
        enum_dcr=enum_dcr,
        mc_de=mc_de,
        mc_dcr=mc_dcr,
        mc_stderr_de=se_de,
        mc_stderr_dcr=se_dcr,
        trials=trials,
        seed=seed,
        enum_abs_err_de=abs(closed.eta - enum_de),
        enum_abs_err_dcr=abs(closed.dcr - enum_dcr),
    )
