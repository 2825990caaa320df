# Experiment orchestration: benchmark schemes, grid-search oracle,
# EE-vs-backhaul sweeps, runtime benchmarks, and SE cross-validation.
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, get_type_hints

import numpy as np
import yaml

from .alloc import Action, ZETA_BOUNDS, KAPPA_BOUNDS, NU_BOUNDS, \
    activation, ap_scores, realize, realize_batch
from .config import SystemConfig
from .env import CellFreeEnv, FeatureNormalizer, beta_features, \
    batch_rewards, DEFAULT_EPISODE_LENGTH, DEFAULT_PENALTY
from .netgen import Scenario, generate_scenario
from .perf import AllocationDecision, PerfReport, closed_form_se, evaluate, \
    evaluate_rows, mc_se_oracle, row_terms
from .nets import MlpParams, init_mlp
from .ppo import PpoHyper, PpoTrainer, PolicySnapshot, \
    SquashedGaussianPolicy, HIDDEN_SIZES, load_checkpoint, save_checkpoint

# --- scheme definitions ----------------------------------------------------

# The coefficients (0 zeta, 1 kappa, 2 nu) each scheme pins, and their
# values. A scheme's action vector holds the others, in that order.
SCHEME_PINS = {"proposed": {}, "drl_ao": {1: 0.0, 2: 1.0}, "drl_ap": {0: 1.0}}
SCHEMES = tuple(SCHEME_PINS)
_COEFF_BOUNDS = np.array([ZETA_BOUNDS, KAPPA_BOUNDS, NU_BOUNDS])


def _free_coeffs(scheme: str) -> List[int]:
    if scheme not in SCHEME_PINS:
        raise ValueError(f"unknown scheme '{scheme}'")
    return [i for i in range(3) if i not in SCHEME_PINS[scheme]]


def scheme_bounds(scheme: str) -> Tuple[np.ndarray, np.ndarray]:
    """Action-box bounds of a scheme's (possibly reduced) action vector."""
    lo, hi = _COEFF_BOUNDS[_free_coeffs(scheme)].T
    return lo.copy(), hi.copy()


def scheme_coeffs(vecs: np.ndarray, scheme: str) -> np.ndarray:
    """Expand a scheme's action vectors (..., dim) into full (zeta, kappa,
    nu) coefficient arrays (..., 3)."""
    free = _free_coeffs(scheme)
    vecs = np.asarray(vecs, dtype=float)
    if len(free) == 3:
        return vecs
    coeffs = np.empty(vecs.shape[:-1] + (3,))
    coeffs[..., free] = vecs
    for i, value in SCHEME_PINS[scheme].items():
        coeffs[..., i] = value
    return coeffs


def scheme_action(vec: np.ndarray, scheme: str) -> Action:
    """Expand a scheme's action vector into the full coefficient triple."""
    return Action(*scheme_coeffs(vec, scheme).tolist())


# --- training and evaluation -------------------------------------------

def build_policy(scheme: str, obs_dim: int,
                 rng: np.random.Generator) -> SquashedGaussianPolicy:
    """A freshly initialized policy whose actor, and so the whole training
    update, runs in float32; its weights are init_mlp's float64 draws,
    rounded once."""
    lo, hi = scheme_bounds(scheme)
    init = init_mlp((obs_dim, *HIDDEN_SIZES, len(lo)), rng,
                    final_scale=0.01)
    actor = MlpParams(init.weights, init.biases, init.sizes,
                      dtype=np.float32)
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
        "system": asdict(cfg),
        "normalizer": env.normalizer.state_dict(),
        "feature_mode": "db_standardized",
        "episode_length": episode_length,
        "master_seed": master_seed,
    }
    save_checkpoint(ckpt, policy, hyper, meta)
    return ckpt


@dataclass
class LoadedPolicy:
    """A policy ready for decisions. `policy` may be given as a trained
    SquashedGaussianPolicy; `__post_init__`, the one conversion point,
    replaces it with its PolicySnapshot, so the field always holds one."""
    policy: PolicySnapshot
    scheme: str
    normalizer: Optional[FeatureNormalizer]
    feature_mode: str
    meta: dict

    def __post_init__(self):
        if not isinstance(self.policy, PolicySnapshot):
            self.policy = PolicySnapshot(self.policy)


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
    """Parse 'z=0.05:1:20,k=0:4:17,n=0:4:17' into coordinate grids. A
    part with an unknown or repeated coordinate, without lo:hi:count, with
    a bound that is not a number or a count that is not an integer of at
    least 1 raises ValueError naming the part."""
    names = {"z": "zeta", "k": "kappa", "n": "nu"}
    grid: Dict[str, np.ndarray] = {}
    for part in spec.split(","):
        key, _, rng_spec = part.partition("=")
        name, fields = names.get(key.strip()), rng_spec.split(":")
        try:
            lo, hi, count = float(fields[0]), float(fields[1]), int(fields[2])
        except (ValueError, IndexError):
            count = None
        problem = ("unknown coordinate (use z, k or n)" if name is None
                   else "repeated coordinate" if name in grid
                   else "want <key>=lo:hi:count" if len(fields) != 3
                   else "want numbers lo:hi and an integer count"
                   if count is None
                   else "count must be >= 1" if count < 1
                   else None)
        if problem:
            raise ValueError(f"--grid part {part!r}: {problem}")
        grid[name] = np.linspace(lo, hi, count)
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
    """Exhaustive search over the coefficient grid for one scenario.

    The |kappa| x |nu| actions are realized once, at the grid's largest
    zeta. Each zeta switches on the top n_on(zeta) APs by score
    (`alloc.activation`), a subset of those on at the largest, and their
    antenna counts and powers do not depend on which other APs are on. So
    that realization, cut to those APs, equals `realize_batch` at the
    zeta bit for bit. Its per-AP closed-form terms (`perf.row_terms`) are
    built once too; each zeta only sums the rows it switches on
    (`perf.evaluate_rows`), which equals `evaluate_batch` of the cut
    realization bit for bit.

    The actions form a |kappa| x |nu| grid; at one zeta an action's
    antenna counts depend on kappa alone, so they are passed as
    (kappa, 1, M) and the power draw's antenna terms are formed once per
    kappa.

    Ties break toward the lexicographically smallest (zeta, kappa, nu):
    batches run in zeta order, actions in (kappa, nu) order, and only a
    strictly larger reward replaces the best so far.
    """
    zetas = np.asarray(grid["zeta"], dtype=float)
    kappa, nu = np.meshgrid(grid["kappa"], grid["nu"], indexing="ij")
    rank, n_on = activation(ap_scores(sc.beta), zetas)
    actions = np.column_stack([np.full(kappa.size, zetas.max()),
                               kappa.ravel(), nu.ravel()])
    rows, n_active, eta = realize_batch(actions, sc, cfg)
    n_active = n_active.reshape(kappa.shape + (-1,))[:, :1]
    terms = row_terms(sc, rows, n_active,
                      eta.reshape(kappa.shape + eta.shape[1:]), cfg)
    del eta   # the row terms hold all that is needed of the powers
    best_action, best_reward = None, None
    for zeta, n in zip(zetas, n_on):
        on = rank < n
        _, _, ee, shortfall = evaluate_rows(
            sc, terms, on[rows], np.where(on, n_active, 0), cfg)
        rewards = batch_rewards(ee, shortfall, penalty).ravel()
        i = int(np.argmax(rewards))
        if best_reward is None or rewards[i] > best_reward:
            best_action = Action(float(zeta), float(kappa.flat[i]),
                                 float(nu.flat[i]))
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
    oracle, in `cfg` with M set per size. A checkpoint can be timed only
    at the M it was trained at (its system is `checkpoint_system`'s);
    another M raises ValueError naming both. Without one, a freshly
    initialized policy of the right dimensions is timed (zero-shot).
    Per size, `n_calls` decisions and max(3, n_calls // 100) oracle calls
    are timed in alternating blocks; the speedup is the ratio of their
    medians."""
    rows = []
    oracle_grid = oracle_grid or default_grid(10, 10, 10)
    trained = None if checkpoint is None else load_policy(checkpoint)
    if trained is not None:
        n_in = trained.policy.actor.sizes[0]
        for M in m_values:
            if M * cfg.K != n_in:
                raise ValueError(
                    f"{checkpoint} was trained at M={n_in / cfg.K:g} "
                    f"(K={cfg.K}); it cannot be timed at M={M}")
    for M in m_values:
        cfg_m = replace(cfg, M=int(M))
        sc = generate_scenario(cfg_m, seed + M)
        if trained is not None:
            lp = trained
        else:
            rng = np.random.default_rng(seed)
            lp = LoadedPolicy(
                policy=build_policy("proposed", cfg_m.M * cfg_m.K, rng),
                scheme="proposed", normalizer=None, feature_mode="raw",
                meta={})
        feats = policy_features(sc, lp)

        # alternating blocks in one window: a block of policy calls, then
        # one oracle call, so that host load reaches both timings alike
        n_oracle = max(3, n_calls // 100)
        lat, olat = np.empty(n_calls), np.empty(n_oracle)
        for j, block in enumerate(np.array_split(np.arange(n_calls),
                                                 n_oracle)):
            for i in block:
                t0 = time.perf_counter()
                vec = lp.policy.deterministic_action(feats)
                realize(scheme_action(vec, lp.scheme), sc, cfg_m)
                lat[i] = time.perf_counter() - t0
            t0 = time.perf_counter()
            grid_oracle_one(sc, oracle_grid, cfg_m)
            olat[j] = time.perf_counter() - t0

        rows.append({
            "M": int(M),
            "policy_median_ms": float(np.median(lat) * 1e3),
            "policy_p95_ms": float(np.percentile(lat, 95) * 1e3),
            "oracle_median_ms": float(np.median(olat) * 1e3),
            "speedup": float(np.median(olat) / np.median(lat)),
        })
    return rows


def latency_growth_exponent(rows: List[dict]) -> float:
    """Log-log slope of median policy latency versus M; fewer than two
    distinct M raise ValueError."""
    if len({r["M"] for r in rows}) < 2:
        raise ValueError("the latency growth exponent needs at least two "
                         "distinct M values")
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
