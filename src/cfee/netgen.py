# Network scenario generation: placement, path loss, shadowing, pilots,
# and channel-estimation quality coefficients.
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import SystemConfig, rho_p


@dataclass
class Scenario:
    """One large-scale fading realization of the network."""

    ap_positions: np.ndarray    # (M, 2) meters
    user_positions: np.ndarray  # (K, 2) meters
    beta: np.ndarray            # (M, K) large-scale fading, linear scale
    pilot_xcorr: np.ndarray     # (K, K), |phi_j^H phi_k|^2
    gamma: np.ndarray           # (M, K) estimation-quality coefficients
    seed: int                   # provenance

    @property
    def M(self) -> int:
        return self.beta.shape[0]

    @property
    def K(self) -> int:
        return self.beta.shape[1]


def path_loss_db(d, cfg: SystemConfig):
    """Three-slope path loss in dB (negative). Accepts scalars or arrays.

    Distances are given in meters; the loss constant L_db calibrates the
    model at 1 km, so the log terms are evaluated in kilometers (the
    default L = 140.7 dB is only physical under this calibration: it
    yields the expected ~12.7 Mbit/J network EE at the default setup).
    """
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distances must be >= 0")
    L = cfg.L_db
    d0, d1 = cfg.d0 / 1e3, cfg.d1 / 1e3
    dk = d / 1e3
    near = -L - 15.0 * np.log10(d1) - 20.0 * np.log10(d0)
    log_d = np.log10(np.maximum(dk, d0))   # both slopes beyond d0
    mid = -L - 15.0 * np.log10(d1) - 20.0 * log_d
    far = -L - 35.0 * log_d
    pl = np.where(dk <= d0, near, np.where(dk <= d1, mid, far))
    return pl if pl.ndim else float(pl)


def wrap_distance(p, q, side: float):
    """Euclidean distance with wrap-around at the square's edges (torus)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    delta = np.abs(p - q)
    delta = np.minimum(delta, side - delta)
    return np.sqrt(np.sum(delta ** 2, axis=-1))


def assign_pilots(K: int, tau_p: int, seed: int) -> np.ndarray:
    """Pilot cross-correlation matrix |phi_j^H phi_k|^2.

    Users get mutually orthonormal pilots when K <= tau_p; otherwise each
    user draws uniformly from a book of tau_p orthonormal sequences, so
    co-pilot pairs have unit cross-correlation.
    """
    if tau_p < 1:
        raise ValueError("tau_p must be >= 1")
    if K <= tau_p:
        return np.eye(K)
    rng = np.random.default_rng(seed)
    pilot_of = rng.integers(0, tau_p, size=K)
    return (pilot_of[:, None] == pilot_of[None, :]).astype(float)


def pilot_groups(xcorr: np.ndarray) -> np.ndarray:
    """Map each user to a pilot-group id (0, 1, ... in order of first
    use); requires a binary cross-correlation matrix, i.e. an orthonormal
    pilot book."""
    if not np.all((np.abs(xcorr) < 1e-12) | (np.abs(xcorr - 1) < 1e-12)):
        raise ValueError("only orthonormal pilot books are supported "
                         "(binary cross-correlation matrix)")
    K = xcorr.shape[0]
    group = -np.ones(K, dtype=int)
    next_id = 0
    for k in range(K):
        if group[k] < 0:
            members = np.flatnonzero(xcorr[:, k] > 0.5)
            group[members] = next_id
            next_id += 1
    return group


def compute_gamma(beta: np.ndarray, xcorr: np.ndarray, tau_p: int,
                  rho_p: float) -> np.ndarray:
    """Mean-square of the MMSE channel estimate per (AP, user) link."""
    if rho_p <= 0:
        raise ValueError("rho_p must be > 0")
    tp = tau_p * rho_p
    denom = tp * (beta @ xcorr) + 1.0
    return tp * beta ** 2 / denom


def scenario_from_rng(cfg: SystemConfig, rng: np.random.Generator,
                      ap_positions: np.ndarray | None = None,
                      seed: int = -1) -> Scenario:
    """Draw one scenario from an existing RNG stream.

    `ap_positions` fixes the AP layout (used for successive large-scale
    intervals within an episode); user placement and shadowing are redrawn.
    """
    if ap_positions is None:
        ap_positions = rng.uniform(0, cfg.area_side, size=(cfg.M, 2))
    user_positions = rng.uniform(0, cfg.area_side, size=(cfg.K, 2))

    d = wrap_distance(ap_positions[:, None, :], user_positions[None, :, :],
                      cfg.area_side)
    pl_db = path_loss_db(d, cfg)
    shadow_db = rng.normal(0.0, cfg.shadow_sigma_db, size=(cfg.M, cfg.K))
    beta = 10.0 ** ((pl_db + shadow_db) / 10.0)

    pilot_seed = int(rng.integers(0, 2 ** 31 - 1))
    xcorr = assign_pilots(cfg.K, cfg.tau_p, pilot_seed)
    gamma = compute_gamma(beta, xcorr, cfg.tau_p, rho_p(cfg))
    return Scenario(ap_positions=ap_positions, user_positions=user_positions,
                    beta=beta, pilot_xcorr=xcorr, gamma=gamma, seed=seed)


def generate_scenario(cfg: SystemConfig, seed: int) -> Scenario:
    """Generate a reproducible scenario; pure function of (cfg, seed)."""
    rng = np.random.default_rng(seed)
    return scenario_from_rng(cfg, rng, seed=seed)


# --- CSV bundle serialization -------------------------------------------

_FMT = "%.17g"  # 17 significant digits: an exact float64 round trip


def _write_matrix(path: Path, mat: np.ndarray, prefix: str):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([f"{prefix}{k}" for k in range(mat.shape[1])])
        for row in mat:
            w.writerow([_FMT % v for v in row])


def _read_matrix(path: Path) -> np.ndarray:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return np.array([[float(v) for v in r] for r in rows[1:]])


def save_scenario(sc: Scenario, outdir) -> None:
    """Write the flat CSV bundle describing a scenario."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "scenario_meta.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["seed", "M", "K", "tau_p"])
        tau_p = int(pilot_groups(sc.pilot_xcorr).max()) + 1
        w.writerow([sc.seed, sc.M, sc.K, tau_p])
    _write_matrix(outdir / "beta.csv", sc.beta, "user_")
    _write_matrix(outdir / "gamma.csv", sc.gamma, "user_")
    _write_matrix(outdir / "pilot_xcorr.csv", sc.pilot_xcorr, "user_")
    with open(outdir / "positions.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["kind", "index", "x", "y"])
        for i, (x, y) in enumerate(sc.ap_positions):
            w.writerow(["ap", i, _FMT % x, _FMT % y])
        for i, (x, y) in enumerate(sc.user_positions):
            w.writerow(["user", i, _FMT % x, _FMT % y])


def load_scenario(indir) -> Scenario:
    """Read back a scenario bundle written by save_scenario."""
    indir = Path(indir)
    with open(indir / "scenario_meta.csv", newline="") as f:
        rows = list(csv.reader(f))
    seed = int(rows[1][0])
    beta = _read_matrix(indir / "beta.csv")
    gamma = _read_matrix(indir / "gamma.csv")
    xcorr = _read_matrix(indir / "pilot_xcorr.csv")
    aps, users = [], []
    with open(indir / "positions.csv", newline="") as f:
        for row in list(csv.reader(f))[1:]:
            (aps if row[0] == "ap" else users).append([float(row[2]),
                                                       float(row[3])])
    return Scenario(ap_positions=np.array(aps), user_positions=np.array(users),
                    beta=beta, pilot_xcorr=xcorr, gamma=gamma, seed=seed)
