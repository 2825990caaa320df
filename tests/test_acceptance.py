# Acceptance gate: one test per criterion, named test_criterion_XX_*, so a
# verbose pytest run shows one pass/fail line per criterion. Criterion 8
# (full scale, about 2 minutes on 2 vCPUs) only runs when CFEE_FULL_SCALE=1
# is set.
import csv
import os

import numpy as np
import pytest

from cfee.alloc import Action, allocate_antennas, allocate_power, realize
from cfee.cli import main
from cfee.config import SystemConfig
from cfee.harness import (bench_runtime, default_grid, evaluate_policy,
                          grid_oracle, held_out_scenarios,
                          latency_growth_exponent, load_policy, train_scheme,
                          validate_se)
from cfee.nets import grad_check, init_mlp
from cfee.ppo import PpoHyper, gae

DESK = dict(M=10, K=5, N=8, tau_p=5)
DESK_STEPS = 100_000
DESK_SEEDS = (0, 1, 2, 3, 4)
N_HELD_OUT = 100


def desk_cfg() -> SystemConfig:
    return SystemConfig(**DESK)


def desk_hyper() -> PpoHyper:
    return PpoHyper()


def _train(scheme, seed, out_dir):
    return train_scheme(desk_cfg(), scheme, desk_hyper(), master_seed=seed,
                        out_dir=out_dir, total_steps=DESK_STEPS)


@pytest.fixture(scope="session")
def run_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def proposed_runs(run_dir):
    """Five independently seeded desk-scale training runs of the full
    scheme; shared between criteria 6 and 7."""
    runs = []
    for seed in DESK_SEEDS:
        out = run_dir / f"proposed_seed{seed}"
        ckpt = _train("proposed", seed, out)
        with open(out / "train_proposed.csv") as f:
            rows = list(csv.DictReader(f))
        runs.append({"seed": seed, "ckpt": ckpt, "log": rows})
    return runs


@pytest.fixture(scope="session")
def held_out():
    return held_out_scenarios(desk_cfg(), N_HELD_OUT, seed=0)


@pytest.fixture(scope="session")
def oracle_results(held_out):
    return grid_oracle(held_out, default_grid(20, 17, 17), desk_cfg())


def _policy_ees(ckpt, scenarios):
    results = evaluate_policy(load_policy(ckpt), scenarios, desk_cfg())
    return np.array([r.ee_mbits_per_joule for _, r in results])


def test_criterion_01_closed_form_matches_monte_carlo():
    cases = validate_se(n_cases=20, n_realizations=100_000, seed=0,
                        max_rel=0.03)
    worst = max(c.max_rel_err for c in cases)
    assert all(c.ok for c in cases), \
        f"worst relative SE error {worst:.4f} exceeds 3%"
    print(f"\ncriterion 1 PASS: 20/20 cases within 3% (worst {worst:.4f})")


def test_criterion_02_power_budget_equality():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10_000):
        K = int(rng.integers(1, 9))
        gamma = rng.uniform(1e-12, 1e-6, size=(1, K))
        nu = float(rng.uniform(0.0, 4.0))
        nm = int(rng.integers(1, 21))
        eta = allocate_power(gamma, np.array([nm]), np.array([0]), nu)
        gap = abs(float((eta[0] * gamma[0]).sum()) - 1.0 / nm) * nm
        worst = max(worst, gap)
        assert gap <= 1e-12
    print(f"\ncriterion 2 PASS: 10000 draws, worst scaled gap {worst:.2e}")


def test_criterion_03_allocation_goldens():
    n = allocate_antennas(np.array([4.0, 1.0]), np.array([0, 1]), 1.0, 20)
    assert np.array_equal(n, [20, 5])
    n = allocate_antennas(np.array([4.0, 1.0, 2.0]), np.array([0, 1, 2]),
                          0.0, 8)
    assert np.array_equal(n, [8, 8, 8])
    gamma = np.array([[0.2, 0.5]])
    eta = allocate_power(gamma, np.array([3]), np.array([0]), 0.0)
    assert np.allclose(eta[0], 1.0 / (gamma[0] * 3 * 2))
    eta = allocate_power(gamma, np.array([3]), np.array([0]), 1.0)
    assert np.allclose(eta[0], 1.0 / (3 * gamma.sum()))
    print("\ncriterion 3 PASS: hand-derived allocation tables match exactly")


def test_criterion_04_gradient_correctness():
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(20):
        sizes = [int(rng.integers(2, 7)) for _ in range(
            int(rng.integers(2, 5)))]
        p = init_mlp(sizes, np.random.default_rng(100 + i))
        res = grad_check(p, np.random.default_rng(200 + i), tol=1e-4)
        worst = max(worst, res.max_rel_err)
        assert res.ok, f"net {sizes}: rel err {res.max_rel_err:.2e}"
    print(f"\ncriterion 4 PASS: 20 nets pass FD checks (worst {worst:.2e})")


def test_criterion_05_gae_identities():
    rng = np.random.default_rng(0)
    for trial in range(5):
        T = 50
        r = rng.normal(size=T)
        v = rng.normal(size=T)
        dones = np.zeros(T, dtype=bool)
        dones[rng.integers(0, T - 1)] = True
        dones[-1] = True
        boot = float(rng.normal())
        # lambda = 0: advantage equals the one-step TD error
        adv0 = gae(r, v, boot, dones, 0.97, 0.0)
        for t in range(T):
            nv = 0.0 if dones[t] else (boot if t == T - 1 else v[t + 1])
            assert abs(adv0[t] - (r[t] + 0.97 * nv - v[t])) <= 1e-10
        # lambda = 1: advantage + value equals the discounted return
        adv1 = gae(r, v, boot, dones, 0.97, 1.0)
        acc = 0.0
        returns = np.zeros(T)
        for t in range(T - 1, -1, -1):
            acc = 0.0 if dones[t] else acc
            acc = r[t] + 0.97 * acc
            returns[t] = acc
        assert np.max(np.abs(adv1 + v - returns)) <= 1e-10
    print("\ncriterion 5 PASS: GAE identities hold to 1e-10")


def test_criterion_06_training_improvement(proposed_runs, held_out,
                                           oracle_results):
    improved = 0
    for run in proposed_runs:
        steps = np.array([int(r["step"]) for r in run["log"]])
        rewards = np.array([float(r["mean_reward"]) for r in run["log"]])
        first = rewards[steps <= 10_000].mean()
        final = rewards[steps > DESK_STEPS - 10_000].mean()
        if final > first:
            improved += 1
    policy_ee = np.mean([_policy_ees(run["ckpt"], held_out).mean()
                         for run in proposed_runs])
    oracle_ee = np.mean([r.ee_mbits_per_joule for r in oracle_results])
    gap = abs(policy_ee - oracle_ee) / oracle_ee
    assert improved >= 4, f"only {improved}/5 seeds improved"
    assert gap <= 0.15, (
        f"{improved}/5 seeds improved, but held-out mean EE "
        f"{policy_ee:.3f} vs oracle {oracle_ee:.3f} Mbit/J leaves a gap "
        f"of {gap:.1%} (> 15%)")
    print(f"\ncriterion 6 PASS: {improved}/5 seeds improved; "
          f"EE {policy_ee:.3f} vs oracle {oracle_ee:.3f} (gap {gap:.1%})")


def test_criterion_07_benchmark_ordering(proposed_runs, held_out, run_dir):
    # per-scenario proposed EE, averaged over the five seeds
    prop = np.mean([_policy_ees(run["ckpt"], held_out)
                    for run in proposed_runs], axis=0)
    margins = {}
    for scheme in ("drl_ao", "drl_ap"):
        ckpt = _train(scheme, DESK_SEEDS[0], run_dir / scheme)
        base = _policy_ees(ckpt, held_out)
        diff = prop - base
        stderr = diff.std(ddof=1) / np.sqrt(len(diff))
        margins[scheme] = (diff.mean(), stderr)
        assert diff.mean() > stderr, (
            f"proposed beats {scheme} by {diff.mean():.3f} Mbit/J, "
            f"not exceeding stderr {stderr:.3f}")
    msg = ", ".join(f"{s}: +{m:.2f}±{e:.2f}" for s, (m, e) in
                    margins.items())
    print(f"\ncriterion 7 PASS: proposed above both baselines ({msg})")


@pytest.mark.skipif(os.environ.get("CFEE_FULL_SCALE") != "1",
                    reason="full-scale smoke takes about 2 minutes; "
                           "set CFEE_FULL_SCALE=1 to run")
def test_criterion_08_full_scale_smoke(tmp_path):
    cfg = SystemConfig(M=40, K=20, N=20, tau_p=20)
    steps = 300_000
    ckpt = train_scheme(cfg, "proposed", desk_hyper(), master_seed=0,
                        out_dir=tmp_path, total_steps=steps)
    with open(tmp_path / "train_proposed.csv") as f:
        rows = list(csv.DictReader(f))
    s = np.array([int(r["step"]) for r in rows])
    rw = np.array([float(r["mean_reward"]) for r in rows])
    windows = [rw[(s > lo) & (s <= lo + 50_000)].mean()
               for lo in range(150_000, steps - 50_000 + 1, 50_000)]
    assert all(b >= a - 1e-9 for a, b in zip(windows, windows[1:])), \
        f"reward not non-decreasing after 150k: {windows}"
    scen = held_out_scenarios(cfg, 20, seed=0)
    results = evaluate_policy(load_policy(ckpt), scen, cfg)
    ee = float(np.mean([r.ee_mbits_per_joule for _, r in results]))
    assert 5.0 <= ee <= 25.0, f"mean EE {ee:.2f} outside the 5-25 decade"
    print(f"\ncriterion 8 PASS: mean EE {ee:.2f} Mbit/J in [5, 25]")


def test_criterion_09_latency_scaling():
    cfg = SystemConfig(M=40, K=20, N=20, tau_p=20)
    rows = bench_runtime([20, 40, 60, 80, 100], cfg, checkpoint=None,
                         n_calls=200, oracle_grid=default_grid(4, 3, 3))
    exponent = latency_growth_exponent(rows)
    assert exponent <= 1.2, f"latency growth exponent {exponent:.2f} > 1.2"
    full = bench_runtime([40], cfg, checkpoint=None, n_calls=200,
                         oracle_grid=default_grid(20, 17, 17))
    speedup = full[0]["speedup"]
    assert speedup >= 100, f"speedup {speedup:.0f}x below 100x at M=40"
    print(f"\ncriterion 9 PASS: growth exponent {exponent:.2f}, "
          f"{speedup:.0f}x faster than the grid oracle at M=40")


def test_criterion_10_byte_identical_csv(tmp_path):
    conf = tmp_path / "c.yaml"
    conf.write_text("system: {M: 5, K: 3, N: 4, tau_p: 3}\n"
                    "ppo: {rollout_horizon: 64, epochs_per_update: 2, "
                    "minibatch: 32}\nenv: {episode_length: 16}\n")
    pairs = []
    for rep in ("a", "b"):
        gen_dir = tmp_path / f"gen_{rep}"
        assert main(["gen", "--config", str(conf), "--seed", "7",
                     "--out", str(gen_dir)]) == 0
        assert main(["oracle", "--config", str(conf), "--scenarios", "3",
                     "--grid", "z=0.05:1:4,k=0:4:3,n=0:4:3", "--seed", "0",
                     "--out", str(tmp_path / f"oracle_{rep}.csv")]) == 0
        assert main(["train", "--config", str(conf), "--scheme", "drl_ao",
                     "--seed", "3", "--steps", "128",
                     "--out", str(tmp_path / f"train_{rep}")]) == 0
        blob = b""
        for f in sorted(gen_dir.iterdir()):
            blob += f.read_bytes()
        blob += (tmp_path / f"oracle_{rep}.csv").read_bytes()
        blob += (tmp_path / f"train_{rep}" / "train_drl_ao.csv").read_bytes()
        pairs.append(blob)
    assert pairs[0] == pairs[1], "repeated runs differ byte-for-byte"
    print("\ncriterion 10 PASS: gen/oracle/train CSVs byte-identical "
          "across repeated seeded runs")
