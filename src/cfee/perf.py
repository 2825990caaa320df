# Performance evaluation: closed-form spectral efficiency, Monte Carlo
# SINR oracle, power model, energy efficiency and QoS shortfall.
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .config import SystemConfig, rho_d, rho_p
from .netgen import Scenario, pilot_groups

POWER_SLACK_TOL = 1e-9  # relative tolerance on the per-AP power budget
MC_CHUNK = 4096         # Monte Carlo realizations drawn per chunk


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


def _check_eta(eta: np.ndarray):
    if not (eta.min() >= 0 and eta.max() < np.inf):   # false for a NaN
        raise ValueError("eta must be finite and nonnegative")


class RowTerms(NamedTuple):
    """The closed form's per-AP terms (see `row_terms`), rows outermost:
    row i of each array, the terms of AP rows[i], is one contiguous block."""

    rows: np.ndarray        # (R,) AP indices
    amp: np.ndarray         # (R, ..., K) N_m sqrt(eta_mk) gamma_mk
    amp_by_beta: Optional[np.ndarray]  # amp / beta_mk if pilots are shared
    nc: np.ndarray          # (R, ..., K) beta_mk N_m load_m
    load: np.ndarray        # (R, ...) load_m = sum_k eta_mk gamma_mk


def _moved(a: np.ndarray, src: int, dst: int) -> np.ndarray:
    """`np.moveaxis(a, src, dst)` for one axis, a view, without its
    argument checks, which cost more than the closed form's small
    batches."""
    axes = list(range(a.ndim))
    axes.insert(dst % a.ndim, axes.pop(src))
    return a.transpose(axes)


def row_terms(sc: Scenario, rows: np.ndarray, n_active: np.ndarray,
              eta: np.ndarray, cfg: SystemConfig) -> RowTerms:
    """The row-local half of the closed form of allocations of one
    scenario: antenna counts (..., M) and powers (..., R, K) on the APs
    `rows` (R,), in index order, with leading batch axes or none, along
    which the antenna counts broadcast against the powers (the grid
    oracle passes (kappa, 1, M) against (kappa, nu, R, K)). A row depends
    only on its AP's antenna count and powers, not on which other APs are
    on; `evaluate_rows` sums the rows."""
    _check_eta(eta)
    R, batch, K = len(rows), eta.shape[:-2], eta.shape[-1]
    gamma = sc.gamma[rows].reshape((R,) + (1,) * len(batch) + (K,))
    beta = sc.beta[rows].reshape(gamma.shape)
    n = _moved(n_active[..., rows], -1, 0).astype(float)  # (R, ...)
    # one transposed pass over eta, into the buffer `nc` ends up in
    nc = np.empty((R,) + batch + (K,))
    nc[...] = _moved(eta, -2, 0)
    amp = np.sqrt(nc)
    amp *= n[..., None]
    amp *= gamma
    nc *= gamma
    load = nc.sum(axis=-1)
    np.multiply(beta, (n * load)[..., None], out=nc)
    xcorr = sc.pilot_xcorr
    shared = np.count_nonzero(xcorr) > np.count_nonzero(np.diagonal(xcorr))
    return RowTerms(rows, amp, amp / beta if shared else None, nc, load)


def _sum_rows(terms: np.ndarray, sel) -> np.ndarray:
    """terms[sel].sum(axis=0) without gathering the rows: each is a
    contiguous block, added one at a time in index order, as numpy adds
    the rows of a slice."""
    if isinstance(sel, slice):
        return terms[sel].sum(axis=0)
    first, *rest = np.flatnonzero(sel)
    total = terms[first].copy()
    for i in rest:
        total += terms[i]
    return total


def evaluate_rows(sc: Scenario, terms: RowTerms, sel, n_active: np.ndarray,
                  cfg: SystemConfig):
    """The reduction half of the closed form: allocations that switch on
    the rows `sel` (a mask or slice of `terms.rows`) alone, antenna counts
    (..., M) zero off them, scored as `evaluate_batch` scores them. Sums
    over APs add row by row, so a row of zero power changes no bit. The
    coherent-interference term carries the pilot cross-correlation factor;
    with orthogonal pilots it vanishes for all pairs."""
    rd = rho_d(cfg)
    # desired signal: rho_d * (sum_m sqrt(eta_mk) N_m gamma_mk)^2
    num = rd * _sum_rows(terms.amp, sel) ** 2

    # coherent interference: rho_d * sum_{j != k} xcorr[j,k] *
    #   (sum_m N_m sqrt(eta_mj) gamma_mj beta_mk / beta_mj)^2,
    # zero unless some users share a pilot
    t_coh = 0.0
    if terms.amp_by_beta is not None:
        # BLAS reads the rows as a strided (..., R_on, K) view: one copy
        # for a mask, none for a slice
        a = _moved(terms.amp_by_beta[sel], 0, -2)
        coh = np.matmul(np.swapaxes(a, -1, -2),
                        sc.beta[terms.rows[sel]])   # (..., K_j, K_k)
        np.square(coh, out=coh)
        xcorr = sc.pilot_xcorr
        coh *= xcorr - np.diag(np.diagonal(xcorr))   # j != k only
        t_coh = rd * coh.sum(axis=-2)

    # non-coherent interference + beamforming uncertainty
    t_nc = rd * _sum_rows(terms.nc, sel)
    se = prelog(cfg) * np.log2(1.0 + num / (t_coh + t_nc + 1.0))
    se_sum = se.sum(axis=-1)
    # `_power` sums the load over all M APs: a pairwise sum, whose bits
    # depend on the zeros it holds
    load = np.zeros(terms.load.shape[1:] + n_active.shape[-1:])
    _moved(load, -1, 0)[terms.rows[sel]] = terms.load[sel]
    p_total = _power(n_active, load, se_sum, cfg)
    return (se, p_total, energy_efficiency(se_sum, p_total, cfg),
            np.maximum(0.0, cfg.se_min - se).sum(axis=-1))


def closed_form_se(sc: Scenario, dec: AllocationDecision,
                   cfg: SystemConfig) -> np.ndarray:
    """Per-user spectral efficiency of one decision from the closed-form
    SINR (see `evaluate_rows`)."""
    return evaluate(sc, dec, cfg).se_per_user


def mc_se_oracle(sc: Scenario, dec: AllocationDecision, cfg: SystemConfig,
                 n_realizations: int, seed: int) -> np.ndarray:
    """Monte Carlo estimate of per-user SE from simulated channels.

    Simulates Rayleigh small-scale fading, pilot reception with additive
    noise, MMSE estimation, and conjugate beamforming, then estimates the
    desired-signal, beamforming-uncertainty, and inter-user interference
    powers by sample averages. AP m uses its first N_m antennas.

    Each chunk of R <= MC_CHUNK realizations draws, in this order, the real
    and the imaginary part of the channel (R, M, N, K) and of the pilot
    noise (R, M, N, G), G pilot groups. The rest runs in real arithmetic
    on the active antennas only, in buffers allocated once per call.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    _check_eta(dec.eta)
    M, K, N = sc.M, sc.K, cfg.N
    group = pilot_groups(sc.pilot_xcorr)
    n_groups = group.max() + 1
    member = np.zeros((K, n_groups))
    member[np.arange(K), group] = 1.0

    if np.any((dec.n_active < 0) | (dec.n_active > N)):
        raise ValueError(f"n_active must lie in 0..N={N}, "
                         f"got {dec.n_active.tolist()}")

    rd, rp = rho_d(cfg), rho_p(cfg)
    tp = cfg.tau_p * rp
    c = np.sqrt(tp) * sc.beta / (tp * (sc.beta @ sc.pilot_xcorr) + 1.0)
    # the A active antennas, m * N + n, and their APs
    on = np.flatnonzero(np.arange(N) < dec.n_active[:, None])
    ap = on // N
    n_on = len(on)
    # The 1/sqrt(2) of each complex Gaussian goes into the scales: the
    # channel is g = sqrt(beta / 2) (x + iy); z = sqrt(2 tau_p rho_p) *
    # sum_{k in group} g_k + (x' + iy') is sqrt(2) times a group's
    # projected pilot observation; d_k z_{group(k)}, d = c sqrt(eta / 2),
    # is the MMSE estimate ghat_k times sqrt(eta_k).
    scale_g = np.sqrt(sc.beta[ap] / 2.0)                    # (A, K)
    group_sum = member * np.sqrt(2.0 * tp)                  # (K, G)
    d = c[ap] * np.sqrt(dec.eta[ap] / 2.0)                  # (A, K)

    C = min(MC_CHUNK, n_realizations)
    draw = np.empty(C * M * N * K)
    picked = np.empty(C * n_on * K)         # the drawn values at `on`
    g = np.empty((C, 2, n_on, K))           # [Re g; Im g]
    z = np.empty((C, 2, n_on, n_groups))    # [Re z; Im z]
    # f = [Re; Im] and [-Im; Re] of ghat sqrt(eta): [Re g; Im g]^T f
    # are Re and Im of b_kj = sum_mn g_k conj(ghat_j) sqrt(eta_j)
    f = np.empty((2, C, 2, n_on, K))
    b = np.empty((2, C, K, K))              # Re b, Im b
    sum_b = np.zeros((2, K, K))
    sum_b2 = np.zeros((2, K, K))
    rng = np.random.default_rng(seed)
    done = 0
    while done < n_realizations:
        R = min(MC_CHUNK, n_realizations - done)
        done += R
        gR, zR, fR, bR = g[:R], z[:R], f[:, :R], b[:, :R]
        # mode="clip" lets take write straight into `out`; `on` is in range
        h = draw[:R * M * N * K].reshape(R, M * N, K)
        h_on = picked[:R * n_on * K].reshape(R, n_on, K)
        for part in range(2):
            rng.standard_normal(out=h)
            np.take(h, on, axis=1, out=h_on, mode="clip")
            np.multiply(h_on, scale_g, out=gR[:, part])
        np.matmul(gR.reshape(-1, K), group_sum, out=zR.reshape(-1, n_groups))
        w = draw[:R * M * N * n_groups].reshape(R, M * N, n_groups)
        w_on = picked[:R * n_on * n_groups].reshape(R, n_on, n_groups)
        for part in range(2):
            rng.standard_normal(out=w)
            np.take(w, on, axis=1, out=w_on, mode="clip")
            zR[:, part] += w_on
        np.matmul(zR.reshape(-1, n_groups), member.T, out=fR[0].reshape(-1, K))
        fR[0] *= d
        np.negative(fR[0, :, 1], out=fR[1, :, 0])
        fR[1, :, 1] = fR[0, :, 0]
        np.matmul(gR.reshape(R, 2 * n_on, K).transpose(0, 2, 1),
                  fR.reshape(2, R, 2 * n_on, K), out=bR)
        sum_b += bR.sum(axis=1)
        np.square(bR, out=bR)
        sum_b2 += bR.sum(axis=1)

    n = float(n_realizations)
    ea = (np.diagonal(sum_b[0]) + 1j * np.diagonal(sum_b[1])) / n
    b2 = (sum_b2[0] + sum_b2[1]) / n                        # E|b_kj|^2
    ds = rd * np.abs(ea) ** 2
    bu = rd * np.maximum(np.diagonal(b2) - np.abs(ea) ** 2, 0.0)
    ui = rd * b2
    np.fill_diagonal(ui, 0.0)
    sinr = ds / (bu + ui.sum(axis=1) + 1.0)
    return prelog(cfg) * np.log2(1.0 + sinr)


def _power(n_active: np.ndarray, load: np.ndarray, se_sum,
           cfg: SystemConfig):
    """Network power draw from antenna counts (..., M), per-AP loads
    (..., M) and sum SEs (...): amplifiers, circuits, and backhaul. The
    antenna-only terms take the antenna counts' shape, so counts that
    broadcast against the loads, (kappa, 1, M) against (kappa, nu, M),
    form them once per kappa."""
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
    return evaluate_rows(sc, row_terms(sc, rows, n_active, eta, cfg),
                         slice(None), n_active, cfg)


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
