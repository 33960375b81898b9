"""Independent verification oracles for one enhancement level.

Two routes re-derive the level figures straight from the vote semantics,
bypassing the closed-form tail algebra:

* :func:`enumerate_level` -- exact: for every loss scenario, enumerate all
  ``2**(n+1)`` detector-outcome vectors and accumulate the mass with at
  least ``k`` positives;
* :func:`mc_level` -- stochastic: sample loss positions and detector
  outcomes on a counter-based splitmix64 stream, reproducible for a fixed
  ``(seed, trials)`` regardless of block scheduling or thread count.  The
  signal and vacuum trials read the same detector draws, so the DE and DCR
  estimates are correlated; each is still checked against its own band.

Both compute the per-detector probabilities from scratch so the only shared
ingredient with the closed form is the model definition itself.
"""

from __future__ import annotations

import math
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor

from . import _kernels
from .dynamics import ComponentParams, DetectorPerformance, LevelConfig, check_int, level_map

__all__ = [
    "ENUM_MAX_N",
    "MC_BLOCK_TRIALS",
    "MC_MAX_THREADS",
    "MC_MAX_TRIALS",
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

# Most pool threads and trials mc_level accepts: each thread holds a block's
# chunk buffers, and 10**9 trials take about 100 s on one thread.
MC_MAX_THREADS = 256
MC_MAX_TRIALS = 10**9

# Relative bound on |closed form - enumeration| (see oracle_report): about
# 90 times the worst gap measured, 1.05e-15 for DE and 1.13e-15 for DCR
# over 36,000 seeded draws (eta uniform on [0, 1], d log-uniform on
# [1e-30, 1e-1], p and P_act uniform on [0.5, 1], Q_err log-uniform on
# [1e-6, 1e-1], n <= 12, k uniform on 1..n), a third of them with DCR below
# 1e-12.  Below the least normal float, ENUM_FLOOR, products lose relative
# precision: subnormal DCRs near 1e-311 differ by about 1e-12 relative.
ENUM_REL_TOL = 1e-13
ENUM_FLOOR = 2.0**-1022


# Closed form vs. enumeration vs. Monte Carlo for one level map.
OracleReport = namedtuple(
    "OracleReport",
    "closed_de closed_dcr enum_de enum_dcr mc_de mc_dcr mc_stderr_de mc_stderr_dcr"
    " trials seed enum_abs_err_de enum_abs_err_dcr enum_ok mc_ok",
)


def _check_enum_size(n: int) -> None:
    if n > ENUM_MAX_N:
        raise ValueError(f"enumeration supports n <= {ENUM_MAX_N}, got n={n}")


def _binom_stderr(prob: float, trials: int) -> float:
    return math.sqrt(prob * (1.0 - prob) / trials)


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
    _check_enum_size(n)
    p = params.p
    p_pos, q_pos, p_sig, q_sig = _scenario_probs(det, params)

    de = 0.0
    weight = 1.0
    for i in range(1, n + 1):
        probs = [p_pos] * i + [q_pos] * (n - i) + [q_sig]
        de += weight * (1.0 - p) * _kernels.vote_mass(probs, k)
        weight *= p
    de += weight * _kernels.vote_mass([p_pos] * n + [p_sig], k)
    dcr = _kernels.vote_mass([q_pos] * n + [q_sig], k)
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

    A trial draws its loss position and one outcome per detector; the
    vacuum trial reads the same detector draws as the signal trial, so the
    two estimates are correlated, though each alone is a plain binomial
    estimate (see :func:`espd._kernels.mc_block`).

    Trials are partitioned into fixed-size blocks; block b draws from the
    substream seeded by ``mix64(seed XOR b)``.  Each of
    ``w = min(threads, blocks)`` workers runs blocks i, i + w, ... in turn
    and no block list is built; integer tallies sum exactly in any order,
    so the output depends only on (seed, trials).  The seed must lie in
    ``[0, 2**64)``, so distinct seeds never share a stream; at most
    ``MC_MAX_THREADS`` pool threads run at most ``MC_MAX_TRIALS`` trials.
    """
    check_int("trials", trials, 1, MC_MAX_TRIALS)
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
    return de_hat, dcr_hat, _binom_stderr(de_hat, trials), _binom_stderr(dcr_hat, trials)


def oracle_report(
    det: DetectorPerformance,
    params: ComponentParams,
    config: LevelConfig,
    trials: int,
    seed: int,
    threads: int = 1,
) -> OracleReport:
    """Run all three routes for one level map and assemble the comparison.

    ``enum_ok``: enumeration within ``ENUM_REL_TOL`` (1e-13) of the closed
    form relative to the larger of the two, plus ``ENUM_FLOOR``, for DE and
    DCR alike; both routes clamp to [0, 1], so the bound, at most
    1e-13 + 2**-1022, implies the 1e-12 of the CLI's ``enum_within_1e-12``.
    ``mc_ok``: each estimate within ``5 * max(its stderr, the enumerated
    truth's stderr)`` of the enumeration; the estimate's own stderr is 0
    when every trial lands the same way.  Bad input raises ``ValueError``
    before any route runs.
    """
    _check_enum_size(config.n)
    # Monte Carlo before enumeration: its count checks reject bad input before any work
    mc_de, mc_dcr, se_de, se_dcr = mc_level(det, params, config, trials, seed, threads)
    closed = level_map(det, params, config)
    enum_de, enum_dcr = enumerate_level(det, params, config)
    err_de, err_dcr = abs(closed.eta - enum_de), abs(closed.dcr - enum_dcr)
    band_de = 5.0 * max(se_de, _binom_stderr(enum_de, trials))
    band_dcr = 5.0 * max(se_dcr, _binom_stderr(enum_dcr, trials))
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
        enum_abs_err_de=err_de,
        enum_abs_err_dcr=err_dcr,
        enum_ok=all(
            err <= ENUM_REL_TOL * max(a, b) + ENUM_FLOOR
            for err, a, b in ((err_de, closed.eta, enum_de), (err_dcr, closed.dcr, enum_dcr))
        ),
        mc_ok=abs(mc_de - enum_de) <= band_de and abs(mc_dcr - enum_dcr) <= band_dcr,
    )
