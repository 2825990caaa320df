# Self-contained critic-free PPO: squashed-Gaussian policy, group-relative
# advantages, clipped surrogate, rollout buffer, and checkpoint I/O.
from __future__ import annotations

import json
import logging
import os
import struct
from dataclasses import dataclass, asdict, fields
from typing import Callable, List, Optional, Sequence

import numpy as np

from .env import DEFAULT_PENALTY
from .nets import Adam, MlpParams, forward, forward_cache, backward, zero_mlp

log = logging.getLogger(__name__)

HIDDEN_SIZES = (256, 256)
LOGSTD_INIT = 0.0  # unit std in squash space: broad initial exploration
LOGSTD_CLAMP = (-5.0, 1.0)  # keeps exploration from collapsing or blowing up
_LOG_2PI = np.log(2.0 * np.pi)

# Actions sampled from one policy forward and scored on each visited
# scenario; each is judged against the others (`group_advantages`).
GROUP_SIZE = 8

CHECKPOINT_MAGIC = b"CFEECKPT"
CHECKPOINT_VERSION = 1
# Options since removed, at the values that describe the current trainer
# (no KL early stop, Adam, no critic, whose discount was 0, and a learning
# rate annealed linearly to 0). Checkpoint headers keep recording them, so
# the format and older readers are intact.
RETIRED_HYPER = {"critic_extra_epochs": 0, "discount": 0.0,
                 "gae_lambda": 0.95, "lr_critic": 1e-3, "lr_decay": True,
                 "optimizer": "adam", "target_kl": 0.0}


@dataclass
class PpoHyper:
    clip: float = 0.2
    lr_actor: float = 1e-3
    minibatch: int = 64
    total_steps: int = 300_000
    rollout_horizon: int = 256  # samples per update, a multiple of GROUP_SIZE
    epochs_per_update: int = 10
    max_grad_norm: float = 0.5
    entropy_coef: float = 0.01  # keeps exploration from collapsing early
    # exploration floor on logstd, held for the first half of training then
    # annealed to LOGSTD_CLAMP[0]; broad early search, precise late placement
    logstd_floor_init: float = -1.2
    # weight of the QoS shortfall in the reward (env.batch_rewards), for
    # training and for the grid oracle alike
    penalty: float = DEFAULT_PENALTY

    def validate(self):
        """Raises ValueError naming the first field out of range."""
        for name, low, strict in (
                ("clip", 0, True), ("lr_actor", 0, True),
                ("max_grad_norm", 0, True), ("minibatch", 1, False),
                ("epochs_per_update", 1, False), ("total_steps", 1, False),
                ("entropy_coef", 0, False), ("penalty", 0, False)):
            value = getattr(self, name)
            if value < low or (strict and value == low):
                raise ValueError(f"{name} must be {'>' if strict else '>='} "
                                 f"{low}, got {value!r}")
        if self.rollout_horizon <= 0 or self.rollout_horizon % GROUP_SIZE:
            raise ValueError(f"rollout_horizon must be a positive multiple "
                             f"of GROUP_SIZE={GROUP_SIZE}, got "
                             f"{self.rollout_horizon}")


class SquashedGaussianPolicy:
    """Gaussian in pre-squash space, mapped into the action box by a
    per-coordinate sigmoid; log-probabilities carry the change-of-variables
    correction. The log-std is a free state-independent parameter.

    The optimised parameters form one vector, `params`: the actor's `flat`
    followed by `logstd`, both views into it."""

    def __init__(self, actor: MlpParams, lo: np.ndarray, hi: np.ndarray,
                 logstd: Optional[np.ndarray] = None):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or np.any(self.hi <= self.lo):
            raise ValueError("bad action bounds")
        dim = self.lo.shape[0]
        if actor.sizes[-1] != dim:
            raise ValueError("actor output dim must match bounds")
        n = actor.n_params()
        self.params = np.empty(n + dim)
        self.params[n:] = LOGSTD_INIT if logstd is None else logstd
        actor.bind(self.params[:n])
        self.actor = actor
        self.logstd = self.params[n:]
        # offset of each parameter array in `params`
        self.starts = np.append(actor.starts, n)

    @property
    def action_dim(self) -> int:
        return self.lo.shape[0]

    def squash(self, raw: np.ndarray) -> np.ndarray:
        s = 1.0 / (1.0 + np.exp(-raw))
        return self.lo + (self.hi - self.lo) * s

    def log_prob(self, raw: np.ndarray, mean: np.ndarray) -> np.ndarray:
        """Density of the squashed action at squash(raw), given the mean."""
        z = (raw - mean) / np.exp(self.logstd)
        gauss = (-0.5 * z ** 2 - self.logstd - 0.5 * _LOG_2PI).sum(axis=-1)
        # minus log |d action / d raw| summed over coordinates
        s = 1.0 / (1.0 + np.exp(-raw))
        jac = (self.hi - self.lo) * s * (1.0 - s)
        return gauss - np.log(np.maximum(jac, 1e-300)).sum(axis=-1)

    def sample(self, state: np.ndarray, rng: np.random.Generator, n: int):
        """n draws for one state from one actor forward: returns the raw
        samples (n, dim), the squashed actions (n, dim) and their
        log-probabilities (n,)."""
        mean = forward(self.actor, state)
        raw = mean + np.exp(self.logstd) * rng.standard_normal(
            (n, self.action_dim))
        return raw, self.squash(raw), self.log_prob(raw, mean)

    def deterministic_action(self, state: np.ndarray) -> np.ndarray:
        return self.squash(forward(self.actor, state))


def gae(rewards: np.ndarray, values: np.ndarray, bootstrap_value: float,
        dones: np.ndarray, discount: float, lam: float) -> np.ndarray:
    """Generalized advantage estimates, truncated at episode ends."""
    T = len(rewards)
    if not (len(values) == len(dones) == T):
        raise ValueError("rewards, values, dones must have equal length")
    adv = np.zeros(T)
    last = 0.0
    for t in range(T - 1, -1, -1):
        next_v = 0.0 if dones[t] else (
            bootstrap_value if t == T - 1 else values[t + 1])
        delta = rewards[t] + discount * next_v - values[t]
        last = delta + discount * lam * (0.0 if dones[t] else last)
        adv[t] = last
    return adv


def clip_grad_norm(grad: np.ndarray, max_norm: float,
                   starts: Sequence[int] = (0,)) -> float:
    """Scales a gradient vector in place so its L2 norm is <= max_norm;
    returns the pre-clip norm. The squared norm adds one pairwise sum per
    parameter array (`starts` are their offsets) in order: a single sum,
    or np.add.reduceat's sequential ones, can differ in the last bit."""
    sq = grad * grad
    total = float(np.sqrt(sum(float(part.sum())
                              for part in np.split(sq, starts[1:]))))
    if total > max_norm:
        grad *= max_norm / total
    return total


def clipped_surrogate(ratio: np.ndarray, adv: np.ndarray,
                      eps: float) -> np.ndarray:
    """Per-sample clipped objective min(r*A, clip(r, 1-eps, 1+eps)*A)."""
    return np.minimum(ratio * adv, np.clip(ratio, 1 - eps, 1 + eps) * adv)


def group_advantages(rewards: np.ndarray) -> np.ndarray:
    """Advantages of rewards laid out as consecutive groups of GROUP_SIZE
    samples on one scenario. Each reward is standardized within its group,
    (r - group mean) / (group std + 1e-8), so the other samples of the
    scenario are its baseline; the batch is then standardized the same
    way. A group of equal rewards gets advantage 0."""
    r = rewards.reshape(-1, GROUP_SIZE)
    adv = ((r - r.mean(axis=1, keepdims=True))
           / (r.std(axis=1, keepdims=True) + 1e-8)).ravel()
    return (adv - adv.mean()) / (adv.std() + 1e-8)


class RolloutBuffer:
    """Fixed-horizon storage for one PPO update, filled one scenario's
    group of GROUP_SIZE samples at a time."""

    def __init__(self, horizon: int, obs_dim: int, act_dim: int):
        self.horizon = horizon
        self.states = np.zeros((horizon, obs_dim))
        self.raws = np.zeros((horizon, act_dim))
        self.logps = np.zeros(horizon)
        self.rewards = np.zeros(horizon)
        self.pos = 0

    def add(self, state, raws, logps, rewards):
        """One scenario's state and the GROUP_SIZE samples drawn on it."""
        rows = slice(self.pos, self.pos + GROUP_SIZE)
        self.states[rows] = state
        self.raws[rows] = raws
        self.logps[rows] = logps
        self.rewards[rows] = rewards
        self.pos += GROUP_SIZE

    @property
    def full(self) -> bool:
        return self.pos >= self.horizon

    def reset(self):
        self.pos = 0


def ppo_update(buffer: RolloutBuffer, policy: SquashedGaussianPolicy,
               opt: Adam, hyper: PpoHyper, rng: np.random.Generator,
               logstd_floor: Optional[float] = None,
               lr_scale: float = 1.0) -> float:
    """One PPO update over a full rollout buffer; returns the last
    minibatch's policy loss. `opt` steps `policy.params`; its state
    carries over from one update to the next."""
    floor = LOGSTD_CLAMP[0] if logstd_floor is None else logstd_floor
    if not buffer.full:
        raise ValueError("rollout buffer not full")
    hyper.validate()
    adv = group_advantages(buffer.rewards)
    opt.lr = hyper.lr_actor * lr_scale
    n_actor = policy.actor.n_params()
    grad = np.empty(policy.params.size)

    T = buffer.horizon
    policy_loss = 0.0
    for _ in range(hyper.epochs_per_update):
        order = rng.permutation(T)
        for start in range(0, T, hyper.minibatch):
            idx = order[start:start + hyper.minibatch]
            states = buffer.states[idx]
            raws = buffer.raws[idx]
            a = adv[idx]
            logp_old = buffer.logps[idx]
            B = len(idx)

            mean, cache = forward_cache(policy.actor, states)
            logp_new = policy.log_prob(raws, mean)
            ratio = np.exp(logp_new - logp_old)
            surr = clipped_surrogate(ratio, a, hyper.clip)
            policy_loss = -float(surr.mean())
            if not np.isfinite(policy_loss):
                raise RuntimeError("policy loss diverged (non-finite)")

            # d(objective)/d(logp): active only where the min picks the
            # unclipped branch (ties included)
            clipped = np.clip(ratio, 1 - hyper.clip, 1 + hyper.clip) * a
            active = (ratio * a) <= clipped
            coef = ratio * a * active            # (B,)
            std = np.exp(policy.logstd)
            z = (raws - mean) / std
            # ascend: feed the negated gradient to the descending optimizer
            grad_mean = -(coef[:, None] * (z / std)) / B
            backward(policy.actor, cache, grad_mean, grad[:n_actor])
            grad[n_actor:] = -(coef[:, None] * (z ** 2 - 1.0)).sum(axis=0) / B
            # entropy bonus: d/d(logstd) of the Gaussian entropy is 1
            grad[n_actor:] -= hyper.entropy_coef
            clip_grad_norm(grad, hyper.max_grad_norm, policy.starts)
            opt.step(grad)
            np.clip(policy.logstd, floor, LOGSTD_CLAMP[1],
                    out=policy.logstd)
    return policy_loss


class PpoTrainer:
    """Rollout collection plus PPO updates against a minimal env interface:
    env.reset(seed) -> features and env.step(coeffs) -> (features,
    rewards, done), scoring one (zeta, kappa, nu) row of `coeffs` per
    action on the current scenario; `to_coeffs` maps the policy's actions
    to those rows, which the log averages. The env redraws users and
    shadowing every slot, so the next state does not depend on the action
    and no critic is needed: GROUP_SIZE actions per visited scenario are
    judged against each other, and each counts as one step. The trainer
    owns the Adam state. Single-threaded and bit-reproducible."""

    def __init__(self, env, policy: SquashedGaussianPolicy, hyper: PpoHyper,
                 master_seed: int,
                 to_coeffs: Callable[[np.ndarray], np.ndarray]):
        hyper.validate()
        self.env = env
        self.policy = policy
        self.hyper = hyper
        self.opt = Adam(policy.params, lr=hyper.lr_actor)
        self.rng = np.random.default_rng(master_seed)
        self.to_coeffs = to_coeffs

    def _next_episode_seed(self) -> int:
        return int(self.rng.integers(0, 2 ** 62))

    def train(self, total_steps: Optional[int] = None,
              log_path=None) -> List[dict]:
        """Run training; returns (and optionally writes) per-update logs."""
        hyper = self.hyper
        total_steps = total_steps or hyper.total_steps
        obs = self.env.reset(self._next_episode_seed())
        buf = RolloutBuffer(hyper.rollout_horizon, len(obs),
                            self.policy.action_dim)
        coeffs = np.zeros((buf.horizon, 3))
        logs: List[dict] = []
        with open(log_path or os.devnull, "w") as log_file:
            log_file.write("step,mean_reward,policy_loss,group_reward_std,"
                           "mean_zeta,mean_kappa,mean_nu\n")
            step = 0
            while step < total_steps:
                buf.reset()
                while not buf.full:
                    raws, actions, logps = self.policy.sample(
                        obs, self.rng, GROUP_SIZE)
                    c = self.to_coeffs(actions)
                    next_obs, rewards, done = self.env.step(c)
                    coeffs[buf.pos:buf.pos + GROUP_SIZE] = c
                    buf.add(obs, raws, logps, rewards)
                    obs = self.env.reset(self._next_episode_seed()) if done \
                        else next_obs
                step += buf.horizon
                progress = min(1.0, step / max(1, total_steps))
                # hold the exploration floor for the first half (cliffs in
                # the reward stay visible while the mean learns to
                # condition), then anneal it away for precise placement
                anneal = max(0.0, 2.0 * progress - 1.0)
                init = hyper.logstd_floor_init
                floor = init + anneal * (LOGSTD_CLAMP[0] - init)
                policy_loss = ppo_update(buf, self.policy, self.opt, hyper,
                                         self.rng, logstd_floor=floor,
                                         lr_scale=max(1.0 - progress, 1e-3))
                groups = buf.rewards.reshape(-1, GROUP_SIZE)
                row = {
                    "step": step,
                    "mean_reward": float(buf.rewards.mean()),
                    "policy_loss": policy_loss,
                    "group_reward_std": float(groups.std(axis=1).mean()),
                    "mean_zeta": float(coeffs[:, 0].mean()),
                    "mean_kappa": float(coeffs[:, 1].mean()),
                    "mean_nu": float(coeffs[:, 2].mean()),
                }
                logs.append(row)
                log_file.write("%d,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g\n"
                               % tuple(row.values()))
                log_file.flush()
        return logs


# --- checkpoint format ----------------------------------------------------
# magic (8 bytes) | version (u32 LE) | header length (u64 LE) | JSON header |
# parameters as little-endian float64: policy.params (actor weights and
# biases, then logstd), then the critic's `flat`, which files written since
# the critic was removed leave out ("critic_sizes": []).

def save_checkpoint(path, policy: SquashedGaussianPolicy, hyper: PpoHyper,
                    meta: Optional[dict] = None):
    meta = dict(meta or {})
    header = {
        "actor_sizes": list(policy.actor.sizes),
        "critic_sizes": [],
        "action_lo": policy.lo.tolist(),
        "action_hi": policy.hi.tolist(),
        "hyper": {**asdict(hyper), **RETIRED_HYPER},
        "meta": meta,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        f.write(policy.params.astype("<f8").tobytes())


def load_checkpoint(path):
    """Returns (policy, critic, hyper, meta). The critic is the one a file
    written before the critic was removed stores, and a network with no
    layers otherwise."""
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError("not a checkpoint file (bad magic)")
        version, = struct.unpack("<I", f.read(4))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        hlen, = struct.unpack("<Q", f.read(8))
        header = json.loads(f.read(hlen).decode())
        payload = f.read()

    actor = zero_mlp(header["actor_sizes"])
    critic = zero_mlp(header["critic_sizes"])
    policy = SquashedGaussianPolicy(actor, np.array(header["action_lo"]),
                                    np.array(header["action_hi"]))
    buf = np.frombuffer(payload, dtype="<f8")
    n = policy.params.size
    if buf.size != n + critic.n_params():
        raise ValueError("checkpoint payload size mismatch")
    policy.params[:] = buf[:n]
    critic.flat[:] = buf[n:]
    known = {f.name for f in fields(PpoHyper)}
    hyper = PpoHyper(**{k: v for k, v in header["hyper"].items()
                        if k in known})
    # a retired option at its RETIRED_HYPER value is what every checkpoint
    # records; any other unknown field describes a run this version cannot
    # reproduce
    ignored = [f"{k}={v!r}" for k, v in sorted(header["hyper"].items())
               if k not in known and (k, v) not in RETIRED_HYPER.items()]
    if ignored:
        log.warning("%s: ignoring checkpoint hyperparameters this version "
                    "does not support: %s", path, ", ".join(ignored))
    return policy, critic, hyper, header["meta"]
