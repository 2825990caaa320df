# Resource allocation heuristics: AP activation, antenna selection, and
# fractional power allocation driven by the three coefficients.
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .config import SystemConfig
from .netgen import Scenario
from .perf import AllocationDecision

ZETA_BOUNDS = (0.05, 1.0)
KAPPA_BOUNDS = (0.0, 4.0)
NU_BOUNDS = (0.0, 4.0)


@dataclass
class Action:
    """The three resource-allocation coefficients."""

    zeta: float   # AP activation ratio
    kappa: float  # antenna concentration exponent
    nu: float     # fractional power-allocation exponent

    def in_bounds(self) -> bool:
        return (ZETA_BOUNDS[0] <= self.zeta <= ZETA_BOUNDS[1]
                and KAPPA_BOUNDS[0] <= self.kappa <= KAPPA_BOUNDS[1]
                and NU_BOUNDS[0] <= self.nu <= NU_BOUNDS[1])


def ap_scores(beta: np.ndarray) -> np.ndarray:
    """Per-AP importance: average large-scale fading across users (the
    sum over K divided by K, `mean`'s arithmetic without its overhead)."""
    if not beta.min() > 0:  # NaN fails too
        raise ValueError("beta must be positive")
    return beta.sum(axis=1) / beta.shape[1]


def _n_on(zeta, M: int):
    """Active-set size max(1, round-half-up(zeta M)) of a zeta in (0, 1],
    or of each entry of an array of them. One zeta takes scalar
    arithmetic, a few numpy calls cheaper per decision; both floor the
    same float64 value zeta M + 0.5, so they agree bit for bit."""
    scalar = not isinstance(zeta, np.ndarray)
    if not (0 < zeta <= 1 if scalar
            else np.all((0 < zeta) & (zeta <= 1))):
        raise ValueError("zeta must lie in (0, 1]")
    if scalar:
        return max(1, int(zeta * M + 0.5))  # int() floors a positive value
    return np.maximum(1, np.floor(zeta * M + 0.5).astype(int))


def activation(scores: np.ndarray, zeta) -> Tuple[np.ndarray, np.ndarray]:
    """The AP activation rule for one scenario's scores: each AP's rank
    (M,), 0 for the best score with ties to the lower AP index, and the
    active-set size n_on of each zeta (`_n_on`). AP m is on under zeta
    when rank[m] < n_on(zeta), so a larger zeta switches on a superset of
    the APs a smaller one does."""
    M = scores.shape[0]
    n_on = _n_on(zeta, M)
    rank = np.empty(M, dtype=int)
    rank[np.argsort(-scores, kind="stable")] = np.arange(M)
    return rank, n_on


def select_aps(scores: np.ndarray, zeta: float) -> np.ndarray:
    """Indices of the top zeta fraction of APs by score, in index order:
    `activation`'s rule for one zeta, read off the sort without a rank
    array."""
    n_on = _n_on(zeta, scores.shape[0])
    return np.sort(np.argsort(-scores, kind="stable")[:n_on])


def _antennas(log_ratio, kappa, N: int):
    """floor(1 + (N-1) w) capped at N, with w = (I_m / I_max)^kappa taken
    in the log domain (log_ratio = log I_m - log I_max) for large kappa."""
    w = np.exp(kappa * log_ratio)
    return np.minimum(N, np.floor(1.0 + (N - 1) * w).astype(int))


def allocate_antennas(scores: np.ndarray, active: np.ndarray, kappa: float,
                      N: int) -> np.ndarray:
    """Active antenna counts: floor(1 + (N-1) w_m) with score-ratio weights."""
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    if len(active) == 0:
        raise ValueError("active set must be nonempty")
    n_active = np.zeros(scores.shape[0], dtype=int)
    log_s = np.log(scores[active])
    n_active[active] = _antennas(log_s - log_s.max(), kappa, N)
    return n_active


def _ratios(gamma: np.ndarray,
            rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Maxima of the `rows` of `gamma` and those rows divided by them
    (row-normalized powers keep exponentiation in a safe range). A row
    with no positive entry raises ValueError naming the first such AP."""
    g = gamma[rows]
    gmax = g.max(axis=1)
    if gmax.min() <= 0:
        raise ValueError(f"degenerate gamma row at AP {rows[gmax <= 0][0]}")
    return gmax, g / gmax[:, None]


def _power_rows(gmax: np.ndarray, r: np.ndarray,
                nu: float) -> Tuple[np.ndarray, np.ndarray]:
    """The power rule on the rows `_ratios` normalized: numerators
    r^(nu-1) and denominators max(g) sum_k r^nu."""
    return r ** (nu - 1.0), gmax * (r ** nu).sum(axis=1)


def allocate_power(gamma: np.ndarray, n_active: np.ndarray,
                   active: np.ndarray, nu: float) -> np.ndarray:
    """Fractional power allocation meeting the per-AP budget with equality.

    eta_mk = (1/N_m) gamma_mk^(nu-1) / sum_j gamma_mj^nu on active rows.
    """
    if nu < 0:
        raise ValueError("nu must be >= 0")
    active = np.asarray(active, dtype=int)
    eta = np.zeros_like(gamma)
    num, den = _power_rows(*_ratios(gamma, active), nu)
    eta[active] = num / (den * n_active[active])[:, None]
    return eta


def realize_batch(actions: np.ndarray, sc: Scenario, cfg: SystemConfig
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Turn B coefficient triples (rows of `actions`, (B, 3)) into
    allocations for one scenario, on the R APs that some action turns on:
    those APs in index order (R,), antenna counts (B, M) and powers
    (B, R, K), exactly 0 where action b has the AP off. Action b equals
    `realize` bit for bit, its powers scattered to those rows."""
    actions = np.asarray(actions, dtype=float).reshape(-1, 3)
    zeta, kappa, nu = actions.T
    scores = ap_scores(sc.beta)
    rank, n_on = activation(scores, zeta)
    if np.any(kappa < 0):
        raise ValueError("kappa must be >= 0")
    if np.any(nu < 0):
        raise ValueError("nu must be >= 0")

    # one stable sort serves every action: AP m is on when its rank is
    # below the action's active-set size
    active = rank < n_on[:, None]

    # the top AP is always on, so the antenna rule's max score is global
    log_s = np.log(scores)
    n_active = np.where(active, _antennas(log_s - log_s.max(),
                                          kappa[:, None], cfg.N), 0)

    # the power rule once per distinct nu, with a scalar exponent (an
    # array of exponents can round differently), gathered per action
    rows = np.flatnonzero(active.any(axis=0))
    gmax, r = _ratios(sc.gamma, rows)
    nus, which = np.unique(nu, return_inverse=True)
    num, den = map(np.stack, zip(*(_power_rows(gmax, r, float(v))
                                   for v in nus)))
    n = n_active[:, rows]
    eta = num[which]
    np.divide(eta, (den[which] * n)[..., None], out=eta,
              where=(n > 0)[..., None])
    eta[n == 0] = 0.0
    return rows, n_active, eta


def realize(action: Action, sc: Scenario, cfg: SystemConfig) -> AllocationDecision:
    """Turn (zeta, kappa, nu) into a concrete allocation for a scenario."""
    scores = ap_scores(sc.beta)
    active = select_aps(scores, action.zeta)
    n_active = allocate_antennas(scores, active, action.kappa, cfg.N)
    eta = allocate_power(sc.gamma, n_active, active, action.nu)
    return AllocationDecision(active=active, n_active=n_active, eta=eta)
