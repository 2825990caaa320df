# Experiment orchestration: benchmark schemes, grid-search oracle,
# EE-vs-backhaul sweeps, runtime benchmarks, and SE cross-validation.
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, get_type_hints

import numpy as np
import yaml

from .alloc import Action, ZETA_BOUNDS, KAPPA_BOUNDS, NU_BOUNDS, realize, \
    realize_batch
from .config import SystemConfig
from .env import CellFreeEnv, FeatureNormalizer, beta_features, \
    batch_rewards, DEFAULT_EPISODE_LENGTH, DEFAULT_PENALTY
from .netgen import Scenario, generate_scenario
from .perf import AllocationDecision, PerfReport, closed_form_se, evaluate, \
    evaluate_batch, mc_se_oracle
from .nets import init_mlp
from .ppo import PpoHyper, PpoTrainer, SquashedGaussianPolicy, HIDDEN_SIZES, \
    load_checkpoint, save_checkpoint

SCHEMES = ("proposed", "drl_ao", "drl_ap")


# --- scheme definitions ----------------------------------------------------

def scheme_bounds(scheme: str) -> Tuple[np.ndarray, np.ndarray]:
    """Action-box bounds of a scheme's (possibly reduced) action vector."""
    if scheme == "proposed":
        lo = [ZETA_BOUNDS[0], KAPPA_BOUNDS[0], NU_BOUNDS[0]]
        hi = [ZETA_BOUNDS[1], KAPPA_BOUNDS[1], NU_BOUNDS[1]]
    elif scheme == "drl_ao":   # only zeta is learned; kappa=0, nu=1 pinned
        lo, hi = [ZETA_BOUNDS[0]], [ZETA_BOUNDS[1]]
    elif scheme == "drl_ap":   # all APs stay on; kappa and nu are learned
        lo = [KAPPA_BOUNDS[0], NU_BOUNDS[0]]
        hi = [KAPPA_BOUNDS[1], NU_BOUNDS[1]]
    else:
        raise ValueError(f"unknown scheme '{scheme}'")
    return np.array(lo, dtype=float), np.array(hi, dtype=float)


def scheme_coeffs(vecs: np.ndarray, scheme: str) -> np.ndarray:
    """Expand a scheme's action vectors (..., dim) into full (zeta, kappa,
    nu) coefficient arrays (..., 3)."""
    vecs = np.asarray(vecs, dtype=float)
    if scheme == "proposed":
        return vecs
    ones = np.ones(vecs.shape[:-1])
    if scheme == "drl_ao":
        return np.stack([vecs[..., 0], np.zeros_like(ones), ones], axis=-1)
    if scheme == "drl_ap":
        return np.stack([ones, vecs[..., 0], vecs[..., 1]], axis=-1)
    raise ValueError(f"unknown scheme '{scheme}'")


def scheme_action(vec: np.ndarray, scheme: str) -> Action:
    """Expand a scheme's action vector into the full coefficient triple."""
    return Action(*scheme_coeffs(vec, scheme).tolist())


# --- training and evaluation -------------------------------------------

def build_policy(scheme: str, obs_dim: int,
                 rng: np.random.Generator) -> SquashedGaussianPolicy:
    lo, hi = scheme_bounds(scheme)
    actor = init_mlp((obs_dim, *HIDDEN_SIZES, len(lo)), rng,
                     final_scale=0.01)
    return SquashedGaussianPolicy(actor, lo, hi)


def train_scheme(cfg: SystemConfig, scheme: str, hyper: PpoHyper,
                 master_seed: int, out_dir,
                 episode_length: int = DEFAULT_EPISODE_LENGTH,
                 total_steps: Optional[int] = None) -> Path:
    """Train one scheme; writes checkpoint + training log, returns the
    checkpoint path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    env = CellFreeEnv(cfg, episode_length=episode_length,
                      penalty=hyper.penalty)
    rng = np.random.default_rng(master_seed)
    policy = build_policy(scheme, env.feature_dim, rng)
    trainer = PpoTrainer(env, policy, hyper, master_seed=master_seed,
                         to_coeffs=lambda v: scheme_coeffs(v, scheme))
    trainer.train(total_steps=total_steps,
                  log_path=out_dir / f"train_{scheme}.csv")
    ckpt = out_dir / f"{scheme}.ckpt"
    meta = {
        "scheme": scheme,
        "M": cfg.M, "K": cfg.K, "N": cfg.N,
        # what evaluation needs; the placement overrides only steer
        # scenario generation
        "system": {k: v for k, v in asdict(cfg).items()
                   if not k.endswith("_override")},
        "normalizer": env.normalizer.state_dict(),
        "feature_mode": "db_standardized",
        "episode_length": episode_length,
        "master_seed": master_seed,
    }
    save_checkpoint(ckpt, policy, hyper, meta)
    return ckpt


@dataclass
class LoadedPolicy:
    policy: SquashedGaussianPolicy
    scheme: str
    normalizer: Optional[FeatureNormalizer]
    feature_mode: str
    meta: dict


def load_policy(ckpt_path) -> LoadedPolicy:
    """A checkpoint's policy with the feature map it was trained on. A
    feature_mode other than beta_features' two raises ValueError."""
    policy, _critic, _hyper, meta = load_checkpoint(ckpt_path)
    mode = meta.get("feature_mode", "db_standardized")
    if mode not in ("db_standardized", "raw"):
        raise ValueError(f"{ckpt_path}: unknown feature_mode {mode!r}")
    norm = None
    if meta.get("normalizer") is not None:
        norm = FeatureNormalizer.from_state_dict(meta["normalizer"])
    return LoadedPolicy(policy=policy, scheme=meta["scheme"],
                        normalizer=norm, feature_mode=mode, meta=meta)


def checkpoint_system(config_path, metas: Dict[str, dict],
                      free: Sequence[str] = ()) -> SystemConfig:
    """The system to evaluate checkpoints (meta by name) in: every
    SystemConfig field they record (older checkpoints record only M, K and
    N), the others from the config at `config_path`, as are the fields in
    `free`, which the caller sets. Checkpoints that record different
    values, or a config that sets a recorded field to another value, raise
    ValueError naming the field."""
    conf = load_config(config_path)
    cfg = conf["system"]
    recorded, source = {}, {}
    for name, meta in metas.items():
        rec = meta.get("system") or {
            f: meta[f] for f in ("M", "K", "N") if f in meta}
        for f, v in rec.items():
            if f in free:
                continue
            if f in recorded and recorded[f] != v:
                raise ValueError(f"{source[f]} records {f}={recorded[f]!r},"
                                 f" but {name} records {f}={v!r}")
            recorded[f], source[f] = v, name
    for f in conf["system_keys"]:
        if f in recorded and getattr(cfg, f) != recorded[f]:
            raise ValueError(f"{config_path} sets {f}={getattr(cfg, f)!r}, "
                             f"but {source[f]} was trained with "
                             f"{f}={recorded[f]!r}")
    return replace(cfg, **recorded)


def policy_features(sc: Scenario, loaded: LoadedPolicy) -> np.ndarray:
    return beta_features(sc, loaded.feature_mode, loaded.normalizer)


def policy_action(sc: Scenario, loaded: LoadedPolicy) -> Action:
    """Deterministic (mean) action of a trained policy on one scenario."""
    vec = loaded.policy.deterministic_action(policy_features(sc, loaded))
    return scheme_action(vec, loaded.scheme)


def evaluate_policy(loaded: LoadedPolicy, scenarios: Sequence[Scenario],
                    cfg: SystemConfig) -> List[Tuple[Action, PerfReport]]:
    actions = [policy_action(sc, loaded) for sc in scenarios]
    return [(a, evaluate(sc, realize(a, sc, cfg), cfg))
            for a, sc in zip(actions, scenarios)]


def held_out_scenarios(cfg: SystemConfig, n: int,
                       seed: int) -> List[Scenario]:
    """Evaluation scenarios drawn from a seed stream distinct from
    training episode seeds (which are < 2**62)."""
    base = 2 ** 62 + seed * 1_000_003
    return [generate_scenario(cfg, base + i) for i in range(n)]


# --- grid-search oracle ------------------------------------------------

def parse_grid(spec: str) -> Dict[str, np.ndarray]:
    """Parse 'z=0.05:1:20,k=0:4:17,n=0:4:17' into coordinate grids."""
    names = {"z": "zeta", "k": "kappa", "n": "nu"}
    grid: Dict[str, np.ndarray] = {}
    for part in spec.split(","):
        key, rng_spec = part.split("=")
        lo, hi, count = rng_spec.split(":")
        grid[names[key.strip()]] = np.linspace(float(lo), float(hi),
                                               int(count))
    missing = set(names.values()) - set(grid)
    if missing:
        raise ValueError(f"grid missing coordinates: {sorted(missing)}")
    return grid


def default_grid(n_zeta: int = 20, n_kappa: int = 17,
                 n_nu: int = 17) -> Dict[str, np.ndarray]:
    return {
        "zeta": np.linspace(ZETA_BOUNDS[0], ZETA_BOUNDS[1], n_zeta),
        "kappa": np.linspace(KAPPA_BOUNDS[0], KAPPA_BOUNDS[1], n_kappa),
        "nu": np.linspace(NU_BOUNDS[0], NU_BOUNDS[1], n_nu),
    }


@dataclass
class OracleResult:
    action: Action
    reward: float
    ee_mbits_per_joule: float
    report: PerfReport


def grid_oracle_one(sc: Scenario, grid: Dict[str, np.ndarray],
                    cfg: SystemConfig,
                    penalty: float = DEFAULT_PENALTY) -> OracleResult:
    """Exhaustive search over the coefficient grid for one scenario, one
    batch of |kappa| x |nu| actions per zeta.

    Ties break toward the lexicographically smallest (zeta, kappa, nu):
    batches run in zeta order, rows in (kappa, nu) order, and only a
    strictly larger reward replaces the best so far.
    """
    kappa = np.repeat(grid["kappa"], len(grid["nu"]))
    nu = np.tile(grid["nu"], len(grid["kappa"]))
    best_action, best_reward = None, None
    for zeta in grid["zeta"]:
        actions = np.column_stack([np.full(len(kappa), zeta), kappa, nu])
        # one expression, so that the batch's powers are freed before the
        # next batch is realized
        _, _, ee, shortfall = evaluate_batch(
            sc, *realize_batch(actions, sc, cfg)[1:], cfg)
        rewards = batch_rewards(ee, shortfall, penalty)
        i = int(np.argmax(rewards))
        if best_reward is None or rewards[i] > best_reward:
            best_action = Action(*(float(c) for c in actions[i]))
            best_reward = float(rewards[i])
    report = evaluate(sc, realize(best_action, sc, cfg), cfg)
    return OracleResult(action=best_action, reward=best_reward,
                        ee_mbits_per_joule=report.ee_mbits_per_joule,
                        report=report)


def grid_oracle(scenarios: Sequence[Scenario], grid: Dict[str, np.ndarray],
                cfg: SystemConfig,
                penalty: float = DEFAULT_PENALTY) -> List[OracleResult]:
    """Per-scenario grid argmax; results ordered like the input list."""
    return [grid_oracle_one(sc, grid, cfg, penalty) for sc in scenarios]


# --- figure-analogue experiments ----------------------------------------

def sweep_pbt(checkpoints: Dict[str, Path], pbt_values: Sequence[float],
              config_path=None, n_scenarios: int = 100,
              seed: int = 0) -> List[dict]:
    """Mean held-out EE per scheme as the backhaul traffic power varies, in
    the system the checkpoints record (`checkpoint_system`)."""
    loaded = {name: load_policy(p) for name, p in checkpoints.items()}
    cfg = checkpoint_system(
        config_path, {str(checkpoints[name]): lp.meta
                      for name, lp in loaded.items()},
        free=("p_bt_watts_per_gbps",))
    rows = []
    for pbt in pbt_values:
        cfg_p = replace(cfg, p_bt_watts_per_gbps=float(pbt))
        scenarios = held_out_scenarios(cfg_p, n_scenarios, seed)
        for name, lp in loaded.items():
            results = evaluate_policy(lp, scenarios, cfg_p)
            ees = np.array([r.ee_mbits_per_joule for _, r in results])
            rows.append({
                "p_bt": float(pbt), "scheme": name,
                "mean_ee_mbits_per_joule": float(ees.mean()),
                "stderr_ee": float(ees.std(ddof=1) / np.sqrt(len(ees))),
                "n_scenarios": len(ees),
            })
    return rows


def bench_runtime(m_values: Sequence[int], cfg: SystemConfig,
                  checkpoint: Optional[Path] = None, n_calls: int = 1000,
                  oracle_grid: Optional[Dict[str, np.ndarray]] = None,
                  seed: int = 0) -> List[dict]:
    """Per-decision latency of policy inference + realization vs the grid
    oracle, across network sizes. A checkpoint is timed in `cfg` with M
    set per size (see `checkpoint_system`); without one, a freshly
    initialized policy of the right dimensions is timed (zero-shot)."""
    rows = []
    oracle_grid = oracle_grid or default_grid(10, 10, 10)
    trained = None if checkpoint is None else load_policy(checkpoint)
    for M in m_values:
        cfg_m = replace(cfg, M=int(M))
        sc = generate_scenario(cfg_m, seed + M)
        if trained is not None:
            lp = trained
            if lp.policy.actor.sizes[0] != cfg_m.M * cfg_m.K:
                raise ValueError("checkpoint dimensions do not match M*K")
        else:
            rng = np.random.default_rng(seed)
            lp = LoadedPolicy(
                policy=build_policy("proposed", cfg_m.M * cfg_m.K, rng),
                scheme="proposed", normalizer=None, feature_mode="raw",
                meta={})
        feats = policy_features(sc, lp)

        lat = np.empty(n_calls)
        for i in range(n_calls):
            t0 = time.perf_counter()
            vec = lp.policy.deterministic_action(feats)
            realize(scheme_action(vec, lp.scheme), sc, cfg_m)
            lat[i] = time.perf_counter() - t0

        n_oracle = max(3, n_calls // 100)
        olat = np.empty(n_oracle)
        for i in range(n_oracle):
            t0 = time.perf_counter()
            grid_oracle_one(sc, oracle_grid, cfg_m)
            olat[i] = time.perf_counter() - t0

        rows.append({
            "M": int(M),
            "policy_median_ms": float(np.median(lat) * 1e3),
            "policy_p95_ms": float(np.percentile(lat, 95) * 1e3),
            "oracle_median_ms": float(np.median(olat) * 1e3),
            "speedup": float(np.median(olat) / np.median(lat)),
        })
    return rows


def latency_growth_exponent(rows: List[dict]) -> float:
    """Log-log slope of median policy latency versus M."""
    m = np.log([r["M"] for r in rows])
    t = np.log([r["policy_median_ms"] for r in rows])
    return float(np.polyfit(m, t, 1)[0])


# --- closed-form vs Monte Carlo validation -------------------------------

@dataclass
class SeValidationCase:
    seed: int
    M: int
    K: int
    N: int
    tau_p: int
    max_rel_err: float
    worst_user: int         # the user with the largest relative error
    worst_user_se: float    # that user's closed-form SE, bit/s/Hz
    ok: bool


def random_small_case(seed: int, max_rel: float = 0.03,
                      n_realizations: int = 100_000,
                      force_shared_pilot: bool = False) -> SeValidationCase:
    """One random small instance: closed form vs the MC oracle."""
    rng = np.random.default_rng(seed)
    while True:
        M = int(rng.integers(1, 5))
        K = int(rng.integers(1, 4))
        N = int(rng.integers(1, 5))
        if M * N > K:
            break
    if force_shared_pilot:
        K = max(K, 2)
        tau_p = 1
        if M * N <= K:
            M, N = 2, 2
    else:
        tau_p = int(rng.integers(1, K + 1))
    cfg = SystemConfig(M=M, K=K, N=N, tau_p=tau_p,
                       tau_c=max(200, tau_p + 1))
    sc = generate_scenario(cfg, int(rng.integers(2 ** 31)))

    # random feasible decision: random active set, antenna counts, and
    # row powers at a random fraction of the per-AP budget
    n_on = int(rng.integers(1, M + 1))
    active = np.sort(rng.choice(M, size=n_on, replace=False))
    n_active = np.zeros(M, dtype=int)
    n_active[active] = rng.integers(1, N + 1, size=n_on)
    eta = np.zeros((M, K))
    for m in active:
        raw = rng.uniform(0.1, 1.0, size=K)
        budget_frac = rng.uniform(0.3, 1.0)
        eta[m] = raw / (raw * sc.gamma[m]).sum() \
            * budget_frac / n_active[m]
    dec = AllocationDecision(active=active, n_active=n_active, eta=eta)
    dec.validate(sc.gamma, cfg.N)

    se_cf = closed_form_se(sc, dec, cfg)
    se_mc = mc_se_oracle(sc, dec, cfg, n_realizations,
                         seed=int(rng.integers(2 ** 31)))
    rel = np.abs(se_cf - se_mc) / np.maximum(se_cf, 1e-12)
    worst = int(np.argmax(rel))
    rel_max = float(rel[worst])
    return SeValidationCase(seed=seed, M=M, K=K, N=N, tau_p=tau_p,
                            max_rel_err=rel_max, worst_user=worst,
                            worst_user_se=float(se_cf[worst]),
                            ok=rel_max <= max_rel)


def validate_se(n_cases: int = 20, n_realizations: int = 100_000,
                seed: int = 0, max_rel: float = 0.03) -> List[SeValidationCase]:
    """Cross-validate the closed form against the MC oracle on random
    small instances (includes shared-pilot cases)."""
    return [random_small_case(seed + i, max_rel=max_rel,
                              n_realizations=n_realizations,
                              force_shared_pilot=(i % 5 == 4))
            for i in range(n_cases)]


# --- configuration files ------------------------------------------------

ENV_TYPES = {"episode_length": int}


def _checked(block, types: dict, where: str) -> dict:
    """A mapping from the YAML config whose keys must all be in `types`
    and whose values must have the key's type there (an int passes for a
    float, a bool never passes for a number; other types go unchecked)."""
    block = {} if block is None else block
    if not isinstance(block, dict):
        raise ValueError(f"{where} must be a mapping")
    unknown = sorted(map(str, set(block) - set(types)))
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    for key, value in block.items():
        want = types[key]
        if want not in (int, float, str, bool):
            continue
        ok = isinstance(value, (int, float) if want is float else want)
        if not ok or (isinstance(value, bool) and want is not bool):
            raise ValueError(f"{where}: {key} must be {want.__name__}, "
                             f"got {value!r}")
    return block


def load_config(path=None) -> dict:
    """Load the YAML experiment configuration (defaults without a path);
    see configs/default.yaml for the schema. Returns a dict with the
    'system' and 'ppo' objects, the names of the SystemConfig fields the
    file sets ('system_keys'), 'episode_length' and 'master_seed'. An
    unknown key or an invalid value raises ValueError naming it."""
    raw = None if path is None else yaml.safe_load(Path(path).read_text())
    raw = _checked(raw, {"system": dict, "env": dict, "ppo": dict,
                         "master_seed": int}, "the config")
    sys_block = _checked(raw.get("system"), get_type_hints(SystemConfig),
                         "config block 'system'")
    env_block = _checked(raw.get("env"), ENV_TYPES, "config block 'env'")
    ppo_block = _checked(raw.get("ppo"), get_type_hints(PpoHyper),
                         "config block 'ppo'")
    cfg = SystemConfig(**sys_block)
    hyper = PpoHyper(**ppo_block)
    hyper.validate()
    episode_length = env_block.get("episode_length", DEFAULT_EPISODE_LENGTH)
    if episode_length < 1:
        raise ValueError(f"config block 'env': episode_length must be >= 1, "
                         f"got {episode_length!r}")
    return {
        "system": cfg,
        "system_keys": sorted(sys_block),
        "episode_length": episode_length,
        "ppo": hyper,
        "master_seed": raw.get("master_seed", 0),
    }
