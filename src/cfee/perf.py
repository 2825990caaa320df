# Performance evaluation: closed-form spectral efficiency, Monte Carlo
# SINR oracle, power model, energy efficiency, and feasibility checks.
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .config import SystemConfig, rho_d, rho_p
from .netgen import Scenario, pilot_groups

POWER_SLACK_TOL = 1e-9  # relative tolerance on the per-AP power budget


@dataclass
class AllocationDecision:
    """Concrete resource allocation: active APs, antenna counts, powers."""

    active: np.ndarray    # sorted AP indices
    n_active: np.ndarray  # (M,) active antenna counts, 0 for inactive APs
    eta: np.ndarray       # (M, K) power coefficients, zero rows when inactive

    def validate(self, gamma: np.ndarray, N: int):
        M = self.n_active.shape[0]
        if len(self.active) < 1 or len(self.active) > M:
            raise ValueError("active set must contain between 1 and M APs")
        mask = np.zeros(M, dtype=bool)
        mask[self.active] = True
        if np.any(self.n_active[~mask] != 0):
            raise ValueError("inactive APs must have N_m = 0")
        if np.any((self.n_active[mask] < 1) | (self.n_active[mask] > N)):
            raise ValueError("active APs need N_m in {1..N}")
        if np.any(self.eta < 0):
            raise ValueError("eta must be nonnegative")
        if np.any(self.eta[~mask] != 0):
            raise ValueError("inactive APs must have zero eta rows")
        load = (self.eta * gamma).sum(axis=1)
        budget = 1.0 / np.maximum(self.n_active, 1)
        if np.any(load[mask] > budget[mask] * (1 + POWER_SLACK_TOL)):
            raise ValueError("per-AP power budget exceeded")


@dataclass
class PerfReport:
    """Evaluation of one (scenario, decision) pair."""

    se_per_user: np.ndarray   # bit/s/Hz
    se_sum: float             # bit/s/Hz
    p_total_watts: float
    ee_bits_per_joule: float
    qos_shortfall: np.ndarray  # max(0, se_min - se_k)

    @property
    def ee_mbits_per_joule(self) -> float:
        return self.ee_bits_per_joule / 1e6


def prelog(cfg: SystemConfig) -> float:
    return (cfg.tau_c - cfg.tau_p) / cfg.tau_c


def _se_and_load(sc: Scenario, rows: np.ndarray, n_active: np.ndarray,
                 eta: np.ndarray, cfg: SystemConfig
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-user spectral efficiency (..., K) from the closed-form SINR, and
    the per-AP load sum_k eta_mk gamma_mk (..., M), of allocations of one
    scenario: antenna counts (..., M) and powers (..., R, K) on the APs
    `rows` (R,), in index order, with one leading batch axis or none. APs
    outside `rows` carry no power. Sums over APs add row by row, so a row
    of zero power in `rows` changes no bit.

    The coherent-interference term carries the pilot cross-correlation
    factor; with orthogonal pilots it vanishes for all pairs.
    """
    gamma, beta = sc.gamma[rows], sc.beta[rows]
    if not (eta.min() >= 0 and eta.max() < np.inf):   # false for a NaN
        raise ValueError("eta must be finite and nonnegative")
    n = n_active[..., rows].astype(float)[..., None]  # (..., R, 1)
    rd = rho_d(cfg)

    # desired signal: rho_d * (sum_m sqrt(eta_mk) N_m gamma_mk)^2
    t = np.sqrt(eta)
    t *= n
    t *= gamma
    num = rd * t.sum(axis=-2) ** 2

    # coherent interference: rho_d * sum_{j != k} xcorr[j,k] *
    #   (sum_m N_m sqrt(eta_mj) gamma_mj beta_mk / beta_mj)^2,
    # zero unless some users share a pilot
    xcorr = sc.pilot_xcorr
    t_coh = 0.0
    if np.count_nonzero(xcorr) > np.count_nonzero(np.diagonal(xcorr)):
        t /= beta                                    # C, indexed by j
        coh = np.matmul(np.swapaxes(t, -1, -2), beta)   # (..., K_j, K_k)
        np.square(coh, out=coh)
        coh *= xcorr - np.diag(np.diagonal(xcorr))   # j != k only
        t_coh = rd * coh.sum(axis=-2)

    # non-coherent interference + beamforming uncertainty
    np.multiply(eta, gamma, out=t)
    load_rows = t.sum(axis=-1)                       # (..., R)
    np.multiply(beta, n * load_rows[..., None], out=t)
    t_nc = rd * t.sum(axis=-2)

    sinr = num / (t_coh + t_nc + 1.0)
    # `_power` sums the load over all M APs: a pairwise sum, whose bits
    # depend on the zeros it holds
    load = np.zeros(n_active.shape)
    load[..., rows] = load_rows
    return prelog(cfg) * np.log2(1.0 + sinr), load


def closed_form_se(sc: Scenario, dec: AllocationDecision,
                   cfg: SystemConfig) -> np.ndarray:
    """Per-user spectral efficiency of one decision from the closed-form
    SINR (see `_se_and_load`)."""
    return _se_and_load(sc, dec.active, dec.n_active, dec.eta[dec.active],
                        cfg)[0]


def mc_se_oracle(sc: Scenario, dec: AllocationDecision, cfg: SystemConfig,
                 n_realizations: int, seed: int,
                 antenna_mask: np.ndarray | None = None,
                 chunk: int = 4096) -> np.ndarray:
    """Monte Carlo estimate of per-user SE from simulated channels.

    Simulates Rayleigh small-scale fading, pilot reception with additive
    noise, MMSE estimation, and conjugate beamforming, then estimates the
    desired-signal, beamforming-uncertainty, and inter-user interference
    powers by sample averages. `antenna_mask` (M, N) overrides the default
    "first N_m antennas active" convention.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    M, K, N = sc.M, sc.K, cfg.N
    group = pilot_groups(sc.pilot_xcorr)
    n_groups = group.max() + 1
    member = np.zeros((K, n_groups))
    member[np.arange(K), group] = 1.0

    if antenna_mask is None:
        antenna_mask = (np.arange(N)[None, :] < dec.n_active[:, None])
    mask = antenna_mask.astype(float)                       # (M, N)
    if not np.array_equal(mask.sum(axis=1), dec.n_active.astype(float)):
        raise ValueError("antenna_mask inconsistent with n_active")

    rd, rp = rho_d(cfg), rho_p(cfg)
    tp = cfg.tau_p * rp
    c = np.sqrt(tp) * sc.beta / (tp * (sc.beta @ sc.pilot_xcorr) + 1.0)
    sqrt_eta = np.sqrt(dec.eta)                             # (M, K)
    sqrt_beta = np.sqrt(sc.beta)

    rng = np.random.default_rng(seed)
    sum_a = np.zeros(K, dtype=complex)
    sum_a2 = np.zeros(K)
    sum_b2 = np.zeros((K, K))
    done = 0
    while done < n_realizations:
        R = min(chunk, n_realizations - done)
        done += R
        h = (rng.standard_normal((R, M, N, K))
             + 1j * rng.standard_normal((R, M, N, K))) / np.sqrt(2.0)
        gA = sqrt_beta[None, :, None, :] * h * mask[None, :, :, None]
        w = (rng.standard_normal((R, M, N, n_groups))
             + 1j * rng.standard_normal((R, M, N, n_groups))) / np.sqrt(2.0)
        w *= mask[None, :, :, None]
        # projected pilot observation, one per pilot group
        ysum = np.einsum("rmnk,kp->rmnp", gA, member)
        ytilde = (np.sqrt(tp) * ysum + w)[:, :, :, group]   # (R, M, N, K)
        ghat = c[None, :, None, :] * ytilde
        u = np.einsum("rmnk,rmnj->rmkj", gA, ghat.conj())
        b = np.einsum("rmkj,mj->rkj", u, sqrt_eta)          # (R, K, K)
        a = np.einsum("rkk->rk", b)
        sum_a += a.sum(axis=0)
        sum_a2 += (np.abs(a) ** 2).sum(axis=0)
        sum_b2 += (np.abs(b) ** 2).sum(axis=0)

    n = float(n_realizations)
    ea = sum_a / n
    ds = rd * np.abs(ea) ** 2
    bu = rd * np.maximum(sum_a2 / n - np.abs(ea) ** 2, 0.0)
    ui = rd * sum_b2 / n
    np.fill_diagonal(ui, 0.0)
    sinr = ds / (bu + ui.sum(axis=1) + 1.0)
    return prelog(cfg) * np.log2(1.0 + sinr)


def _power(n_active: np.ndarray, load: np.ndarray, se_sum,
           cfg: SystemConfig):
    """Network power draw from antenna counts (..., M), per-AP loads
    (..., M) and sum SEs (...): amplifiers, circuits, and backhaul."""
    n = n_active.astype(float)
    # rho_d * N0 equals the radiated downlink power by construction
    amp = cfg.p_down_watts / cfg.alpha_amp * (n * load).sum(axis=-1)
    circuit = cfg.p_tc_watts * n.sum(axis=-1)
    n_on = (n_active > 0).sum(axis=-1)
    traffic_gbps = cfg.bandwidth_hz * se_sum / 1e9
    backhaul = n_on * (cfg.p_fix_watts
                       + traffic_gbps * cfg.p_bt_watts_per_gbps)
    idle = (n_active.shape[-1] - n_on) * cfg.idle_backhaul_power
    return amp + circuit + backhaul + idle


def total_power(dec: AllocationDecision, se_sum: float, sc: Scenario,
                cfg: SystemConfig) -> float:
    """Network power draw: amplifiers, circuits, and backhaul."""
    if se_sum < 0:
        raise ValueError("se_sum must be >= 0")
    load = (dec.eta * sc.gamma).sum(axis=1)
    return float(_power(dec.n_active, load, se_sum, cfg))


def energy_efficiency(se_sum, p_total, cfg: SystemConfig):
    """Energy efficiency in bit/J (elementwise on arrays)."""
    if np.any(np.asarray(p_total) <= 0):
        raise ValueError("p_total must be > 0 (empty active set?)")
    return cfg.bandwidth_hz * se_sum / p_total


def evaluate_batch(sc: Scenario, rows: np.ndarray, n_active: np.ndarray,
                   eta: np.ndarray, cfg: SystemConfig):
    """Closed-form evaluation of B allocations of one scenario as
    `alloc.realize_batch` returns them: the APs some allocation turns on
    (R,), antenna counts (B, M) and powers on those APs (B, R, K). Returns
    per-user SE (B, K), and the power draw in watts, the EE in bit/J and
    the QoS shortfall sum_k max(0, se_min - se_k), each (B,). Row b equals
    `evaluate` of decision b bit for bit; without the batch axis, every
    output loses its first axis."""
    se, load = _se_and_load(sc, rows, n_active, eta, cfg)
    se_sum = se.sum(axis=-1)
    p_total = _power(n_active, load, se_sum, cfg)
    return (se, p_total, energy_efficiency(se_sum, p_total, cfg),
            np.maximum(0.0, cfg.se_min - se).sum(axis=-1))


def evaluate(sc: Scenario, dec: AllocationDecision,
             cfg: SystemConfig) -> PerfReport:
    """Full closed-form evaluation of one decision."""
    se, p_total, ee, _ = evaluate_batch(sc, dec.active, dec.n_active,
                                        dec.eta[dec.active], cfg)
    return PerfReport(
        se_per_user=se,
        se_sum=float(se.sum()),
        p_total_watts=float(p_total),
        ee_bits_per_joule=float(ee),
        qos_shortfall=np.maximum(0.0, cfg.se_min - se),
    )


@dataclass
class FeasibilityVerdict:
    qos_ok: np.ndarray        # (K,) bool, se_k >= se_min
    qos_slack: np.ndarray     # (K,) se_k - se_min
    power_ok: np.ndarray      # (M,) bool on active APs (True when inactive)
    power_slack: np.ndarray   # (M,) 1/N_m - sum_k eta gamma (0 for inactive)
    antenna_ok: bool          # N_m within {0..N}, >= 1 on active APs

    @property
    def feasible(self) -> bool:
        return bool(self.qos_ok.all() and self.power_ok.all()
                    and self.antenna_ok)


def check_feasibility(sc: Scenario, dec: AllocationDecision,
                      cfg: SystemConfig) -> FeasibilityVerdict:
    """Per-constraint verdicts and slacks for the design problem."""
    se = closed_form_se(sc, dec, cfg)
    qos_slack = se - cfg.se_min
    mask = np.zeros(sc.M, dtype=bool)
    mask[dec.active] = True
    load = (dec.eta * sc.gamma).sum(axis=1)
    budget = 1.0 / np.maximum(dec.n_active, 1)
    power_slack = np.where(mask, budget - load, 0.0)
    power_ok = ~mask | (load <= budget * (1 + POWER_SLACK_TOL))
    antenna_ok = bool(
        np.all(dec.n_active[mask] >= 1) and np.all(dec.n_active <= cfg.N)
        and np.all(dec.n_active[~mask] == 0))
    return FeasibilityVerdict(qos_ok=qos_slack >= 0, qos_slack=qos_slack,
                              power_ok=power_ok, power_slack=power_slack,
                              antenna_ok=antenna_ok)


REPORT_CSV_HEADER = ("seed,zeta,kappa,nu,n_active_aps,n_antennas,se_sum,"
                     "p_total_watts,ee_mbits_per_joule,min_se,qos_violations")


def report_csv_row(seed: int, action, dec: AllocationDecision,
                   report: PerfReport) -> str:
    """One CSV line summarizing an evaluated decision."""
    return ",".join([
        str(seed),
        "%.12g" % action.zeta, "%.12g" % action.kappa, "%.12g" % action.nu,
        str(len(dec.active)), str(int(dec.n_active.sum())),
        "%.12g" % report.se_sum, "%.12g" % report.p_total_watts,
        "%.12g" % report.ee_mbits_per_joule,
        "%.12g" % report.se_per_user.min(),
        str(int((report.qos_shortfall > 0).sum())),
    ])
