"""Reference closed-form evaluator, written from the model's formulas.

It deliberately does not import ``cfee.perf``: every quantity is an
explicit per-user sum over APs, so the benchmark's correctness checks
compare the program against the model rather than against a copy of
the program's own output.

Downlink cell-free massive MIMO with conjugate beamforming, N_m active
antennas at AP m, power coefficients eta_mk, large-scale fading beta_mk
and MMSE estimate quality gamma_mk.  For user k:

    signal        DS_k = rho_d (sum_m N_m sqrt(eta_mk) gamma_mk)^2
    coherent      CI_k = rho_d sum_{j != k} |phi_j^H phi_k|^2
                         (sum_m N_m sqrt(eta_mj) gamma_mj beta_mk / beta_mj)^2
    non-coherent  NC_k = rho_d sum_m N_m beta_mk sum_j eta_mj gamma_mj
    SE_k = (tau_c - tau_p) / tau_c * log2(1 + DS_k / (CI_k + NC_k + 1))

Network power: amplifiers P_d / alpha * sum_m N_m sum_k eta_mk gamma_mk,
circuits P_tc * sum_m N_m, backhaul (P_fix + B SE_sum / 1e9 * P_bt) per
active AP, and the idle draw of every switched-off AP.  EE = B SE_sum / P.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def allocation(beta: np.ndarray, gamma: np.ndarray, zeta: float,
               kappa: float, nu: float, N: int):
    """The (zeta, kappa, nu) rules, AP by AP.  Returns (n_active, eta).

    The round-half-up(zeta M) APs with the largest mean beta are active
    (lower index first on ties).  Active AP m gets
    N_m = min(N, floor(1 + (N - 1) (I_m / I_max)^kappa)) antennas, with I_m
    its mean beta, and powers eta_mk = gamma_mk^(nu-1) / (N_m sum_j
    gamma_mj^nu), so that sum_k eta_mk gamma_mk = 1 / N_m."""
    M, K = beta.shape
    score = [float(np.mean(beta[m])) for m in range(M)]
    n_on = max(1, math.floor(zeta * M + 0.5))
    active = sorted(sorted(range(M), key=lambda m: (-score[m], m))[:n_on])
    top = max(score[m] for m in active)
    n_active = np.zeros(M, dtype=int)
    eta = np.zeros((M, K))
    for m in active:
        w = math.exp(kappa * (math.log(score[m]) - math.log(top)))
        n_active[m] = min(N, math.floor(1.0 + (N - 1) * w))
        # powers relative to the row maximum keep gamma^nu in range
        g = gamma[m] / gamma[m].max()
        total = sum(g[j] ** nu for j in range(K))
        for k in range(K):
            eta[m, k] = g[k] ** (nu - 1.0) / (
                gamma[m].max() * total * n_active[m])
    return n_active, eta


@dataclass
class RefReport:
    se_per_user: np.ndarray  # bit/s/Hz
    se_sum: float
    p_total_watts: float
    ee_mbits_per_joule: float
    shortfall_sum: float     # sum_k max(0, se_min - SE_k)

    def reward(self, penalty: float) -> float:
        return self.ee_mbits_per_joule - penalty * self.shortfall_sum


def noise_watts(cfg) -> float:
    """Thermal noise: -174 dBm/Hz over the bandwidth plus the noise figure."""
    dbm = -174.0 + 10.0 * math.log10(cfg.bandwidth_hz) + cfg.noise_figure_db
    return 10.0 ** (dbm / 10.0) / 1000.0


def mmse_gamma(beta: np.ndarray, xcorr: np.ndarray, cfg) -> np.ndarray:
    """gamma_mk = tau_p rho_p beta_mk^2 /
    (tau_p rho_p sum_j beta_mj |phi_j^H phi_k|^2 + 1), one user at a time."""
    tp = cfg.tau_p * cfg.p_pilot_watts / noise_watts(cfg)
    M, K = beta.shape
    gamma = np.empty((M, K))
    for k in range(K):
        received = np.zeros(M)
        for j in range(K):
            received += beta[:, j] * xcorr[j, k]
        gamma[:, k] = tp * beta[:, k] ** 2 / (tp * received + 1.0)
    return gamma


def evaluate(beta: np.ndarray, gamma: np.ndarray, xcorr: np.ndarray,
             n_active: np.ndarray, eta: np.ndarray, cfg) -> RefReport:
    """Closed-form SE, power and EE of one decision, user by user."""
    M, K = beta.shape
    rho_d = cfg.p_down_watts / noise_watts(cfg)
    n = np.asarray(n_active, dtype=float)
    sqrt_eta = np.sqrt(eta)
    load = np.zeros(M)                  # sum_j eta_mj gamma_mj per AP
    for j in range(K):
        load += eta[:, j] * gamma[:, j]

    se = np.empty(K)
    for k in range(K):
        ds = rho_d * float(np.sum(n * sqrt_eta[:, k] * gamma[:, k])) ** 2
        ci = 0.0
        for j in range(K):
            if j != k and xcorr[j, k] != 0.0:
                s = float(np.sum(n * sqrt_eta[:, j] * gamma[:, j]
                                 * beta[:, k] / beta[:, j]))
                ci += rho_d * xcorr[j, k] * s * s
        nc = rho_d * float(np.sum(n * beta[:, k] * load))
        sinr = ds / (ci + nc + 1.0)
        se[k] = (cfg.tau_c - cfg.tau_p) / cfg.tau_c * math.log2(1.0 + sinr)

    se_sum = float(se.sum())
    n_on = int(np.count_nonzero(n_active))
    p_total = (cfg.p_down_watts / cfg.alpha_amp * float(np.sum(n * load))
               + cfg.p_tc_watts * float(n.sum())
               + n_on * (cfg.p_fix_watts + cfg.bandwidth_hz * se_sum / 1e9
                         * cfg.p_bt_watts_per_gbps)
               + (M - n_on) * cfg.idle_backhaul_power)
    ee = cfg.bandwidth_hz * se_sum / p_total / 1e6
    shortfall = float(np.sum(np.maximum(0.0, cfg.se_min - se)))
    return RefReport(se_per_user=se, se_sum=se_sum, p_total_watts=p_total,
                     ee_mbits_per_joule=ee, shortfall_sum=shortfall)


def evaluate_decision(sc, dec, cfg) -> RefReport:
    return evaluate(sc.beta, sc.gamma, sc.pilot_xcorr, dec.n_active, dec.eta,
                    cfg)
