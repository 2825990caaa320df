# Episodic environment: states are large-scale fading snapshots, actions
# are groups of (zeta, kappa, nu) triples, rewards trade EE against QoS.
from __future__ import annotations

import logging
from typing import Optional, Tuple

import numpy as np

from .alloc import KAPPA_BOUNDS, NU_BOUNDS, ZETA_BOUNDS, realize_batch
from .config import SystemConfig
from .netgen import Scenario, scenario_from_rng
from .perf import evaluate_batch

log = logging.getLogger(__name__)

DEFAULT_EPISODE_LENGTH = 200
DEFAULT_PENALTY = 20.0       # xi_pen, commensurate with EE in Mbit/J
NORMALIZER_WARMUP_SLOTS = 1000
# (zeta, kappa, nu) lower and upper bounds
_ACTION_LO, _ACTION_HI = np.array([ZETA_BOUNDS, KAPPA_BOUNDS, NU_BOUNDS]).T


class FeatureNormalizer:
    """Per-feature running standardization, frozen after a warmup budget.

    Statistics accumulate over the first `warmup` observed slots (Welford),
    then stay fixed so that the policy sees a stationary feature map.
    """

    def __init__(self, dim: int, warmup: int = NORMALIZER_WARMUP_SLOTS):
        self.dim = dim
        self.warmup = warmup
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros(dim)

    @property
    def frozen(self) -> bool:
        return self.count >= self.warmup

    def update(self, x: np.ndarray):
        if self.frozen:
            return
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    def std(self) -> np.ndarray:
        if self.count < 2:
            return np.ones(self.dim)
        return np.sqrt(np.maximum(self.m2 / (self.count - 1), 1e-8))

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std()

    def state_dict(self) -> dict:
        return {"count": self.count, "warmup": self.warmup,
                "mean": self.mean.tolist(), "m2": self.m2.tolist()}

    @classmethod
    def from_state_dict(cls, d: dict) -> "FeatureNormalizer":
        norm = cls(len(d["mean"]), warmup=d["warmup"])
        norm.count = d["count"]
        norm.mean = np.array(d["mean"])
        norm.m2 = np.array(d["m2"])
        return norm


def beta_features(sc: Scenario, feature_mode: str,
                  normalizer: Optional[FeatureNormalizer],
                  update: bool = False) -> np.ndarray:
    """The policy's observation of a scenario: beta flattened, in dB and
    standardized by `normalizer` ("db_standardized"), or linear ("raw", or
    no normalizer). `update` feeds the dB values to the normalizer first."""
    flat = sc.beta.ravel()
    if feature_mode == "raw" or normalizer is None:
        return flat.copy()
    feats = 10.0 * np.log10(flat)
    if update:
        normalizer.update(feats)
    return normalizer.transform(feats)


def batch_rewards(ee_bits_per_joule, qos_shortfall, penalty: float):
    """EE in Mbit/J minus the weighted total QoS shortfall, elementwise, for
    the decisions `perf.evaluate_batch` scored."""
    return ee_bits_per_joule / 1e6 - penalty * qos_shortfall


class CellFreeEnv:
    """MDP over successive large-scale intervals of one network.

    The env owns its episode: the RNG stream, the current scenario and the
    slot index. AP positions are fixed per episode; user placement and
    shadowing are redrawn i.i.d. each slot from the episode's RNG stream.
    """

    def __init__(self, cfg: SystemConfig,
                 episode_length: int = DEFAULT_EPISODE_LENGTH,
                 penalty: float = DEFAULT_PENALTY,
                 normalizer: Optional[FeatureNormalizer] = None):
        self.cfg = cfg
        self.episode_length = episode_length
        self.penalty = penalty
        self.normalizer = normalizer or FeatureNormalizer(cfg.M * cfg.K)
        self._rng: Optional[np.random.Generator] = None
        self.scenario: Optional[Scenario] = None
        self.slot_index = 0        # t in {1..T} once reset

    @property
    def feature_dim(self) -> int:
        return self.cfg.M * self.cfg.K

    def _observe(self) -> np.ndarray:
        return beta_features(self.scenario, "db_standardized",
                             self.normalizer, update=True)

    def reset(self, seed: int) -> np.ndarray:
        """Start an episode; returns the first slot's features."""
        self._rng = np.random.default_rng(seed)
        self.scenario = scenario_from_rng(self.cfg, self._rng, seed=seed)
        self.slot_index = 1
        return self._observe()

    def step(self, coeffs) -> Tuple[np.ndarray, np.ndarray, bool]:
        """Score every (zeta, kappa, nu) row of `coeffs` ((G, 3), or one
        triple) on the current slot; returns the next slot's features, the
        G rewards and whether the episode ended."""
        if self._rng is None:
            raise RuntimeError("call reset() before step()")
        actions = np.asarray(coeffs, dtype=float).reshape(-1, 3)
        if not np.all((_ACTION_LO <= actions) & (actions <= _ACTION_HI)):
            log.warning("actions %s out of bounds; clamping",
                        actions.tolist())
            actions = np.clip(actions, _ACTION_LO, _ACTION_HI)
        sc = self.scenario
        _, n_active, eta = realize_batch(actions, sc, self.cfg)
        _, _, ee, shortfall = evaluate_batch(sc, n_active, eta, self.cfg)
        rewards = batch_rewards(ee, shortfall, self.penalty)

        done = self.slot_index >= self.episode_length
        self.scenario = scenario_from_rng(
            self.cfg, self._rng, ap_positions=sc.ap_positions, seed=sc.seed)
        self.slot_index += 1
        return self._observe(), rewards, done
