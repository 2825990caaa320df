import dataclasses
import json
import re
import struct

import numpy as np
import pytest
import yaml

import cfee.cli
import cfee.harness
from cfee.cli import main
from cfee.config import SystemConfig
from cfee.harness import (ENV_TYPES, SCHEMES, LoadedPolicy, bench_runtime,
                          build_policy, default_grid, evaluate_policy,
                          grid_oracle, grid_oracle_one, held_out_scenarios,
                          latency_growth_exponent, load_config, load_policy,
                          parse_grid, policy_action, policy_features,
                          scheme_action, scheme_bounds, scheme_coeffs,
                          sweep_pbt, train_scheme, validate_se)
from cfee.alloc import Action, KAPPA_BOUNDS, NU_BOUNDS, ZETA_BOUNDS, realize
from cfee.env import CellFreeEnv, batch_rewards
from cfee.netgen import Scenario, generate_scenario, save_scenario
from cfee.perf import evaluate
from cfee.nets import init_mlp
from cfee.ppo import HIDDEN_SIZES, PolicySnapshot, PpoHyper, load_checkpoint


@pytest.fixture
def cfg():
    return SystemConfig(M=5, K=3, N=4, tau_p=3)


def reward_of(rep):
    return float(batch_rewards(rep.ee_bits_per_joule,
                               rep.qos_shortfall.sum(), 20.0))


def small_hyper(**kw):
    base = dict(rollout_horizon=64, epochs_per_update=2, minibatch=32)
    base.update(kw)
    return PpoHyper(**base)


def rewrite_meta(ckpt, **changes):
    """Rewrite a checkpoint's meta in place; a None value deletes the key."""
    blob = ckpt.read_bytes()
    hlen, = struct.unpack("<Q", blob[12:20])
    header = json.loads(blob[20:20 + hlen])
    for key, value in changes.items():
        if value is None:
            del header["meta"][key]
        else:
            header["meta"][key] = value
    new = json.dumps(header, sort_keys=True).encode()
    ckpt.write_bytes(blob[:12] + struct.pack("<Q", len(new)) + new
                     + blob[20 + hlen:])


class TestSchemes:
    def test_bounds_shapes(self):
        assert scheme_bounds("proposed")[0].shape == (3,)
        assert scheme_bounds("drl_ao")[0].shape == (1,)
        assert scheme_bounds("drl_ap")[0].shape == (2,)
        with pytest.raises(ValueError):
            scheme_bounds("nope")

    def test_drl_ao_pins_kappa_nu(self):
        a = scheme_action(np.array([0.4]), "drl_ao")
        assert (a.zeta, a.kappa, a.nu) == (0.4, 0.0, 1.0)

    def test_coeff_rows_match_one_action(self):
        rng = np.random.default_rng(0)
        for scheme in ("proposed", "drl_ao", "drl_ap"):
            lo, hi = scheme_bounds(scheme)
            vecs = rng.uniform(lo, hi, size=(8, len(lo)))
            rows = scheme_coeffs(vecs, scheme)
            assert rows.shape == (8, 3)
            for v, row in zip(vecs, rows):
                a = scheme_action(v, scheme)
                assert tuple(row) == (a.zeta, a.kappa, a.nu)
        with pytest.raises(ValueError):
            scheme_coeffs(vecs, "nope")

    def test_table_matches_hand_expansions(self):
        # the per-scheme expansions the table replaced, written out
        z, k, n = ZETA_BOUNDS, KAPPA_BOUNDS, NU_BOUNDS
        bounds = {"proposed": ([z[0], k[0], n[0]], [z[1], k[1], n[1]]),
                  "drl_ao": ([z[0]], [z[1]]),
                  "drl_ap": ([k[0], n[0]], [k[1], n[1]])}
        expand = {
            "proposed": lambda v, ones: v,
            "drl_ao": lambda v, ones: np.stack([v[..., 0], 0 * ones, ones],
                                               axis=-1),
            "drl_ap": lambda v, ones: np.stack([ones, v[..., 0], v[..., 1]],
                                               axis=-1)}
        assert SCHEMES == tuple(bounds)
        rng = np.random.default_rng(1)
        for scheme, (lo, hi) in bounds.items():
            got_lo, got_hi = scheme_bounds(scheme)
            assert np.array_equal(got_lo, lo) and np.array_equal(got_hi, hi)
            for shape in ((len(lo),), (4, len(lo)), (2, 3, len(lo))):
                v = rng.uniform(lo, hi, size=shape)
                want = expand[scheme](v, np.ones(shape[:-1]))
                assert np.array_equal(scheme_coeffs(v, scheme), want)
        with pytest.raises(ValueError, match="unknown scheme 'nope'"):
            scheme_bounds("nope")

    def test_drl_ap_keeps_all_aps(self, cfg):
        sc = generate_scenario(cfg, 0)
        a = scheme_action(np.array([2.0, 0.5]), "drl_ap")
        assert a.zeta == 1.0
        dec = realize(a, sc, cfg)
        assert len(dec.active) == cfg.M

    def test_drl_ao_uniform_antennas(self, cfg):
        sc = generate_scenario(cfg, 1)
        dec = realize(scheme_action(np.array([0.6]), "drl_ao"), sc, cfg)
        assert np.all(dec.n_active[dec.active] == cfg.N)

    def test_scheme_env_round_trip(self, cfg):
        env = CellFreeEnv(cfg, episode_length=2)
        obs = env.reset(5)
        assert obs.shape == (cfg.M * cfg.K,)
        coeffs = scheme_coeffs(np.array([0.5]), "drl_ao")
        obs2, rewards, done = env.step(coeffs)
        assert np.all(np.isfinite(rewards)) and not done
        _, _, done = env.step(coeffs)
        assert done


class TestGridParsing:
    def test_parse_round_trip(self):
        grid = parse_grid("z=0.05:1:20,k=0:4:17,n=0:4:17")
        assert len(grid["zeta"]) == 20
        assert grid["zeta"][0] == 0.05
        assert grid["kappa"][-1] == 4.0
        assert len(grid["nu"]) == 17

    def test_missing_axis_rejected(self):
        with pytest.raises(ValueError):
            parse_grid("z=0:1:5")

    @pytest.mark.parametrize("spec, part, problem", [
        ("x=0:1:3,k=0:4:3,n=0:4:3", "x=0:1:3", "unknown coordinate"),
        ("z=0.1:1,k=0:4:3,n=0:4:3", "z=0.1:1", "want <key>=lo:hi:count"),
        ("z=0.1:1:0,k=0:4:3,n=0:4:3", "z=0.1:1:0", "count must be >= 1"),
        ("z=0.1:1:3,k=0:4:3,n=0:4:3,z=0.2:1:4", "z=0.2:1:4",
         "repeated coordinate"),
        ("z=0:1:2.5,k=0:4:3,n=0:4:3", "z=0:1:2.5",
         "want numbers lo:hi and an integer count"),
        ("z=a:1:2,k=0:4:3,n=0:4:3", "z=a:1:2",
         "want numbers lo:hi and an integer count")],
        ids=["unknown", "missing_field", "zero_count", "repeated",
             "fractional_count", "non_numeric_bound"])
    def test_bad_part_named(self, tmp_path, capsys, spec, part, problem):
        message = f"--grid part '{part}': {problem}"
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_grid(spec)
        out = tmp_path / "oracle.csv"
        assert main(["oracle", "--grid", spec, "--scenarios", "1",
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_default_grid_covers_bounds(self):
        grid = default_grid()
        assert grid["zeta"][0] == 0.05 and grid["zeta"][-1] == 1.0
        assert grid["kappa"][0] == 0.0 and grid["kappa"][-1] == 4.0


class TestGridOracle:
    def test_single_point_grid_matches_direct_eval(self, cfg):
        sc = generate_scenario(cfg, 3)
        grid = {"zeta": np.array([0.7]), "kappa": np.array([1.0]),
                "nu": np.array([0.5])}
        res = grid_oracle_one(sc, grid, cfg)
        assert (res.action.zeta, res.action.kappa, res.action.nu) == \
            (0.7, 1.0, 0.5)
        rep = evaluate(sc, realize(res.action, sc, cfg), cfg)
        assert res.reward == pytest.approx(reward_of(rep))
        assert res.ee_mbits_per_joule == pytest.approx(
            rep.ee_mbits_per_joule)

    def test_oracle_dominates_grid_points(self, cfg):
        sc = generate_scenario(cfg, 4)
        grid = default_grid(5, 4, 4)
        res = grid_oracle_one(sc, grid, cfg)
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = Action(float(rng.choice(grid["zeta"])),
                       float(rng.choice(grid["kappa"])),
                       float(rng.choice(grid["nu"])))
            rep = evaluate(sc, realize(a, sc, cfg), cfg)
            assert reward_of(rep) <= res.reward + 1e-12

    def test_results_ordered_like_input(self, cfg):
        scen = held_out_scenarios(cfg, 3, seed=1)
        grid = default_grid(4, 3, 3)
        batch = grid_oracle(scen, grid, cfg)
        singles = [grid_oracle_one(sc, grid, cfg) for sc in scen]
        for b, s in zip(batch, singles):
            assert b.reward == s.reward
            assert b.action == s.action

    def brute_force(self, sc, grid, cfg):
        """The first strict maximum over every grid point, one action at a
        time, in (zeta, kappa, nu) order."""
        best = None
        for z in grid["zeta"]:
            for k in grid["kappa"]:
                for n in grid["nu"]:
                    a = Action(float(z), float(k), float(n))
                    r = reward_of(evaluate(sc, realize(a, sc, cfg), cfg))
                    if best is None or r > best[1]:
                        best = (a, r)
        return best

    def test_matches_one_action_at_a_time(self, cfg):
        grid = default_grid(6, 5, 5)
        for sc in held_out_scenarios(cfg, 2, seed=3):
            res = grid_oracle_one(sc, grid, cfg)
            action, reward = self.brute_force(sc, grid, cfg)
            assert res.action == action
            assert res.reward == reward
            assert res.report.ee_mbits_per_joule == res.ee_mbits_per_joule

    def test_matches_one_action_at_a_time_full_scale(self):
        # the paper's scale, where each zeta's batch holds only the APs it
        # switches on
        full = SystemConfig(M=40, K=20, N=20, tau_p=20)
        grid = default_grid(6, 5, 5)
        for sc in held_out_scenarios(full, 2, seed=4):
            self.assert_brute_force(sc, grid, full)

    def test_ties_break_to_the_lexicographic_first(self, cfg):
        # zeta 0.05 and 0.1 both switch on only the top AP (n_on = 1 at
        # M = 5), and with one AP every kappa gives it all N antennas: each
        # (zeta, kappa) pair ties, so only nu decides; repeated points tie
        # exactly
        sc = generate_scenario(cfg, 5)
        grid = {"zeta": np.array([0.05, 0.1, 0.1]),
                "kappa": np.array([0.0, 2.0, 2.0, 4.0]),
                "nu": np.array([0.5, 1.0, 1.0, 3.0])}
        res = grid_oracle_one(sc, grid, cfg)
        action, reward = self.brute_force(sc, grid, cfg)
        assert (res.action.zeta, res.action.kappa) == (0.05, 0.0)
        assert res.action == action and res.reward == reward
        repeated = {"zeta": np.array([0.6, 0.6]), "kappa": np.array([1.0]),
                    "nu": np.array([2.0, 2.0])}
        res = grid_oracle_one(sc, repeated, cfg)
        assert res.action == Action(0.6, 1.0, 2.0)

    def assert_brute_force(self, sc, grid, cfg):
        res = grid_oracle_one(sc, grid, cfg)
        action, reward = self.brute_force(sc, grid, cfg)
        assert res.action == action
        assert struct.pack("<d", res.reward) == struct.pack("<d", reward)

    @pytest.mark.parametrize("tau_p, idle", [(20, 0.0), (7, 0.0), (20, 0.7)],
                             ids=["orthogonal", "shared",
                                  "orthogonal_idle_power"])
    def test_matches_one_action_at_a_time_benchmark_grid(self, tau_p, idle):
        # the benchmark's 20 x 17 x 17 grid at the paper's scale, where
        # each zeta sums its own rows of the row terms, and the power
        # draw's antenna terms, idle backhaul among them, come once per
        # kappa
        full = SystemConfig(M=40, K=20, N=20, tau_p=tau_p,
                            idle_backhaul_power=idle)
        sc = held_out_scenarios(full, 1, seed=9)[0]
        self.assert_brute_force(sc, default_grid(20, 17, 17), full)

    def test_matches_one_action_at_a_time_shared_pilots(self):
        # two users per pilot: the coherent term sums over the rows each
        # zeta keeps of the largest zeta's realization
        shared = SystemConfig(M=6, K=4, N=3, tau_p=2)
        for sc in held_out_scenarios(shared, 2, seed=5):
            self.assert_brute_force(sc, default_grid(6, 5, 5), shared)

    def test_matches_one_action_at_a_time_descending_zeta(self, cfg):
        grid = {"zeta": np.linspace(1.0, 0.05, 6),
                "kappa": np.linspace(0.0, 4.0, 4),
                "nu": np.linspace(0.0, 4.0, 4)}
        for sc in held_out_scenarios(cfg, 2, seed=6):
            self.assert_brute_force(sc, grid, cfg)

    def test_degenerate_gamma_only_when_on_at_the_largest_zeta(self, cfg):
        sc = generate_scenario(cfg, 7)
        weakest = int(np.argmin(sc.beta.mean(axis=1)))
        sc.gamma[weakest] = 0.0
        # n_on = 4 of 5 at zeta 0.8: the weakest AP stays off
        grid = {"zeta": np.array([0.8, 0.3, 0.6]),
                "kappa": np.array([0.0, 2.0]), "nu": np.array([0.5, 1.5])}
        self.assert_brute_force(sc, grid, cfg)
        grid["zeta"] = np.append(grid["zeta"], 1.0)
        with pytest.raises(ValueError,
                           match=f"degenerate gamma row at AP {weakest}"):
            grid_oracle_one(sc, grid, cfg)

    def test_realizes_once_per_scenario(self, cfg, monkeypatch):
        calls = []
        realize_batch = cfee.harness.realize_batch

        def counting(actions, sc, cfg_):
            calls.append(len(actions))
            return realize_batch(actions, sc, cfg_)

        monkeypatch.setattr(cfee.harness, "realize_batch", counting)
        grid_oracle(held_out_scenarios(cfg, 3, seed=8), default_grid(5, 4, 3),
                    cfg)
        assert calls == [12, 12, 12]

    def test_builds_row_terms_once_per_scenario(self, cfg, monkeypatch):
        built, reduced = [], []
        row_terms, evaluate_rows = (cfee.harness.row_terms,
                                    cfee.harness.evaluate_rows)

        # the actions as a kappa x nu grid, antenna counts once per kappa
        def counting_terms(sc, rows, n_active, eta, cfg_):
            built.append(eta.shape[:-2])
            return row_terms(sc, rows, n_active, eta, cfg_)

        def counting_reductions(sc, terms, sel, n_active, cfg_):
            reduced.append(n_active.shape[:-1])
            return evaluate_rows(sc, terms, sel, n_active, cfg_)

        monkeypatch.setattr(cfee.harness, "row_terms", counting_terms)
        monkeypatch.setattr(cfee.harness, "evaluate_rows",
                            counting_reductions)
        grid_oracle(held_out_scenarios(cfg, 3, seed=8), default_grid(5, 4, 3),
                    cfg)
        assert built == [(4, 3)] * 3
        assert reduced == [(4, 1)] * 15


class TestTrainEval:
    def test_train_writes_checkpoint_and_log(self, cfg, tmp_path):
        ckpt = train_scheme(cfg, "drl_ao", small_hyper(), master_seed=0,
                            out_dir=tmp_path, episode_length=16,
                            total_steps=128)
        assert ckpt.exists()
        log = tmp_path / "train_drl_ao.csv"
        lines = log.read_text().strip().splitlines()
        assert lines[0].startswith("step,mean_reward")
        assert len(lines) == 3  # header + 2 updates of 64 steps

    def test_loaded_policy_evaluates(self, cfg, tmp_path):
        ckpt = train_scheme(cfg, "proposed", small_hyper(), master_seed=1,
                            out_dir=tmp_path, episode_length=16,
                            total_steps=64)
        lp = load_policy(ckpt)
        assert lp.scheme == "proposed"
        assert lp.normalizer is not None
        # the log ends in each action dimension's log-std after the update
        lines = (tmp_path / "train_proposed.csv").read_text().splitlines()
        assert lines[0].split(",")[-3:] == ["logstd_0", "logstd_1",
                                            "logstd_2"]
        policy64, _, _, _ = load_checkpoint(ckpt)
        assert [float(v) for v in lines[-1].split(",")[-3:]] == \
            pytest.approx(policy64.logstd, rel=1e-11)
        # trained in float32, stored as float64
        assert np.array_equal(policy64.params,
                              policy64.params.astype(np.float32))
        scen = held_out_scenarios(cfg, 3, seed=0)
        results = evaluate_policy(lp, scen, cfg)
        assert len(results) == 3
        for action, report in results:
            assert action.in_bounds()
            assert np.isfinite(report.ee_mbits_per_joule)

    def test_policy_action_deterministic(self, cfg, tmp_path):
        ckpt = train_scheme(cfg, "drl_ap", small_hyper(), master_seed=2,
                            out_dir=tmp_path, episode_length=16,
                            total_steps=64)
        lp = load_policy(ckpt)
        sc = generate_scenario(cfg, 9)
        assert policy_action(sc, lp) == policy_action(sc, lp)

    def test_recorded_feature_mode_honoured(self, cfg, tmp_path):
        # a checkpoint that records "raw" is fed linear beta; an unknown
        # mode is refused, naming it
        ckpt = train_scheme(cfg, "proposed", small_hyper(), master_seed=7,
                            out_dir=tmp_path, episode_length=16,
                            total_steps=64)
        assert load_policy(ckpt).feature_mode == "db_standardized"
        rewrite_meta(ckpt, feature_mode="raw")
        lp = load_policy(ckpt)
        sc = generate_scenario(cfg, 3)
        assert np.array_equal(policy_features(sc, lp), sc.beta.ravel())
        assert policy_action(sc, lp) == scheme_action(
            lp.policy.deterministic_action(sc.beta.ravel()), "proposed")
        rewrite_meta(ckpt, feature_mode="db")
        with pytest.raises(ValueError, match="feature_mode 'db'"):
            load_policy(ckpt)

    def test_held_out_disjoint_from_training_seeds(self, cfg):
        scen = held_out_scenarios(cfg, 5, seed=0)
        assert all(sc.seed >= 2 ** 62 for sc in scen)
        assert len({sc.seed for sc in scen}) == 5


class TestFloat32Inference:
    """Decisions come from a float32 snapshot (`LoadedPolicy.policy`) of
    the trained actor, whose float32 weights the checkpoint stores as
    float64; the float64 reference below runs on those stored values."""

    DESK = SystemConfig(M=10, K=5, N=8, tau_p=5)

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        ckpt = train_scheme(self.DESK, "proposed", small_hyper(),
                            master_seed=4,
                            out_dir=tmp_path_factory.mktemp("desk"),
                            episode_length=16, total_steps=512)
        return ckpt, held_out_scenarios(self.DESK, 200, seed=1)

    @staticmethod
    def float64_action(policy, feats):
        h = feats
        for i, (w, b) in enumerate(zip(policy.actor.weights,
                                       policy.actor.biases)):
            h = w @ h + b
            if i < len(policy.actor.weights) - 1:
                h = np.maximum(h, 0.0)
        return policy.lo + (policy.hi - policy.lo) / (1.0 + np.exp(-h))

    def test_within_1e6_of_float64_with_same_antennas(self, trained):
        ckpt, scenarios = trained
        lp = load_policy(ckpt)
        policy64, _, _, _ = load_checkpoint(ckpt)
        box = policy64.hi - policy64.lo
        for sc in scenarios:
            feats = policy_features(sc, lp)
            a32 = lp.policy.deterministic_action(feats)
            a64 = self.float64_action(policy64, feats)
            assert a32.dtype == np.float64
            assert np.all(np.abs(a32 - a64) <= 1e-6 * box)
            d32 = realize(scheme_action(a32, "proposed"), sc, self.DESK)
            d64 = realize(scheme_action(a64, "proposed"), sc, self.DESK)
            assert np.array_equal(d32.n_active, d64.n_active)

    def test_snapshot_is_frozen(self, trained):
        ckpt, scenarios = trained
        policy, _, _, meta = load_checkpoint(ckpt)
        lp = LoadedPolicy(policy=policy, scheme="proposed",
                          normalizer=load_policy(ckpt).normalizer,
                          feature_mode="db_standardized", meta=meta)
        feats = [policy_features(sc, lp) for sc in scenarios[:20]]
        before = [lp.policy.deterministic_action(f) for f in feats]
        policy.params[:] = 0.0
        after = [lp.policy.deterministic_action(f) for f in feats]
        assert np.array_equal(before, after)
        assert lp.policy.actor.flat.dtype == np.float32

    def test_fresh_actor_rounds_float64_draws(self):
        # init_mlp's float64 stream, rounded once: an untrained policy
        # decides as it did when training ran in float64
        policy = build_policy("proposed", 50, np.random.default_rng(8))
        ref = init_mlp((50, *HIDDEN_SIZES, 3), np.random.default_rng(8),
                       final_scale=0.01)
        assert policy.actor.flat.tobytes() == \
            ref.flat.astype(np.float32).tobytes()

    def test_given_snapshot_is_kept(self, trained):
        ckpt, _ = trained
        lp = load_policy(ckpt)
        assert isinstance(lp.policy, PolicySnapshot)
        assert dataclasses.replace(lp, meta={}).policy is lp.policy


class TestDominantApGeometry:
    def test_oracle_shuts_down_remote_aps(self, placed_scenario):
        # one AP next to every user, the rest far away: small zeta wins
        cfg = SystemConfig(M=4, K=2, N=4, tau_p=2, shadow_sigma_db=0.0)
        sc = placed_scenario(
            cfg, [[500.0, 500.0], [10.0, 10.0], [990.0, 10.0], [10.0, 990.0]],
            [[495.0, 500.0], [505.0, 500.0]])
        grid = default_grid(8, 3, 3)
        res = grid_oracle_one(sc, grid, cfg)
        dec = realize(res.action, sc, cfg)
        assert len(dec.active) == 1
        assert dec.active[0] == 0


class TestSweepPbt:
    def test_ee_decreases_with_backhaul_price(self, cfg, tmp_path):
        ckpt = train_scheme(cfg, "drl_ao", small_hyper(), master_seed=3,
                            out_dir=tmp_path, episode_length=16,
                            total_steps=64)
        rows = sweep_pbt({"drl_ao": ckpt}, [0.0, 0.25, 1.0],
                         n_scenarios=5, seed=0)
        assert len(rows) == 3
        ees = [r["mean_ee_mbits_per_joule"] for r in rows]
        assert ees[0] > ees[1] > ees[2]
        assert all(r["stderr_ee"] >= 0 for r in rows)


class TestBench:
    def test_latency_rows_and_speedup(self, cfg):
        rows = bench_runtime([5, 10], cfg, checkpoint=None, n_calls=30)
        assert [r["M"] for r in rows] == [5, 10]
        for r in rows:
            assert r["policy_median_ms"] > 0
            assert r["speedup"] > 1
        assert np.isfinite(latency_growth_exponent(rows))

    def test_growth_exponent_needs_two_sizes(self):
        row = {"M": 40, "policy_median_ms": 0.1}
        for rows in ([row], [row, dict(row, policy_median_ms=0.2)]):
            with pytest.raises(ValueError, match="two distinct M"):
                latency_growth_exponent(rows)


class TestValidateSe:
    def test_small_batch_passes(self):
        cases = validate_se(n_cases=3, n_realizations=20_000, seed=0,
                            max_rel=0.05)
        assert all(c.ok for c in cases)

    def test_shared_pilot_case_forced(self):
        from cfee.harness import random_small_case
        c = random_small_case(4, n_realizations=20_000, max_rel=0.05,
                              force_shared_pilot=True)
        assert c.tau_p == 1 and c.K >= 2
        assert c.ok


class TestLoadConfig:
    def test_yaml_round_trip(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text(
            "system: {M: 6, K: 3, N: 4, tau_p: 3}\n"
            "env: {episode_length: 32}\n"
            "ppo: {rollout_horizon: 128, lr_actor: 0.001, penalty: 10.0}\n"
            "master_seed: 5\n")
        conf = load_config(p)
        assert conf["system"].M == 6
        assert conf["episode_length"] == 32
        assert conf["ppo"].rollout_horizon == 128
        assert conf["ppo"].penalty == 10.0
        assert conf["master_seed"] == 5

    def test_default_config_file_parses(self):
        conf = load_config("configs/default.yaml")
        assert conf["system"].M == 40

    def test_default_config_file_is_the_schema(self):
        # configs/default.yaml lists every ppo and env setting, at the
        # values a run without a config uses
        with open("configs/default.yaml") as f:
            raw = yaml.safe_load(f)
        assert set(raw["ppo"]) == {
            f.name for f in dataclasses.fields(PpoHyper)}
        assert set(raw["env"]) == set(ENV_TYPES)
        from_file, defaults = load_config("configs/default.yaml"), \
            load_config(None)
        for key in ("system", "ppo", "episode_length", "master_seed"):
            assert from_file[key] == defaults[key]

    def test_bad_field_rejected(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("system: {M: -3}\n")
        with pytest.raises(ValueError):
            load_config(p)

    @pytest.mark.parametrize("text, key", [
        ("master_seed: 1\nseed: 2\n", "seed"),
        ("system: {M: 6, K: 3, N: 4, tau_p: 3, antennas: 4}\n", "antennas"),
        ("env: {episode_length: 8, penalty: 5.0}\n", "penalty"),
        ("ppo: {clip: 0.2, target_kl: 0.01}\n", "target_kl"),
        ("ppo: {critic_extra_epochs: 2}\n", "critic_extra_epochs"),
        ("ppo: {optimizer: adam}\n", "optimizer"),
        ("ppo: {lr_decay: true}\n", "lr_decay"),
        ("env: {feature_mode: raw}\n", "feature_mode"),
        ("env: {penalty_coefficient: 1.0}\n", "penalty_coefficient"),
        ("env: {idle_backhaul_power: 0.5}\n", "idle_backhaul_power"),
        ("system: {M: 2, K: 1, N: 2, tau_p: 1, "
         "ap_positions_override: [[0, 0], [5, 5]]}\n",
         "ap_positions_override"),
        ("system: {user_positions_override: [[0, 0]]}\n",
         "user_positions_override"),
    ])
    def test_unknown_key_named(self, tmp_path, text, key):
        p = tmp_path / "unknown.yaml"
        p.write_text(text)
        with pytest.raises(ValueError, match=f"unknown key.*: {key}$"):
            load_config(p)
        assert main(["gen", "--config", str(p), "--seed", "0",
                     "--out", str(tmp_path / "s")]) == 2

    @pytest.mark.parametrize("text, key", [
        ("system: {M: ten}\n", "M"),
        ("system: {M: 6.0, K: 3, N: 4, tau_p: 3}\n", "M"),
        ("system: {N: true}\n", "N"),
        ("system: {se_min: [1.0]}\n", "se_min"),
        ("system: {bandwidth_hz: 1e7}\n", "bandwidth_hz"),  # YAML: a str
        ("ppo: {minibatch: 64.5}\n", "minibatch"),
        ("ppo: {clip: false}\n", "clip"),
        ("ppo: {logstd_floor_init: [-1, -2, -3]}\n", "logstd_floor_init"),
        ("ppo: {logstd_floor_init: abc}\n", "logstd_floor_init"),
        ("env: {episode_length: '32'}\n", "episode_length"),
        ("master_seed: 1.5\n", "master_seed"),
    ])
    def test_value_type_named(self, tmp_path, text, key):
        p = tmp_path / "bad.yaml"
        p.write_text(text)
        with pytest.raises(ValueError, match=f": {key} must be "):
            load_config(p)
        assert main(["gen", "--config", str(p), "--seed", "0",
                     "--out", str(tmp_path / "s")]) == 2

    @pytest.mark.parametrize("text, key", [
        ("ppo: {minibatch: 0}\n", "minibatch"),
        ("ppo: {minibatch: 12}\n", "minibatch"),
        ("ppo: {epochs_per_update: 0}\n", "epochs_per_update"),
        ("ppo: {total_steps: 0}\n", "total_steps"),
        ("ppo: {entropy_coef: -0.01}\n", "entropy_coef"),
        ("ppo: {penalty: -1.0}\n", "penalty"),
        ("env: {episode_length: 0}\n", "episode_length"),
    ])
    def test_value_range_named(self, tmp_path, text, key, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text(text)
        with pytest.raises(ValueError, match=f"{key} must be >"):
            load_config(p)
        capsys.readouterr()
        assert main(["train", "--config", str(p), "--out",
                     str(tmp_path / "run"), "--steps", "64"]) == 2
        assert f"{key} must be >" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("steps", ["0", "-5"])
    def test_train_steps_named(self, tmp_path, steps, capsys):
        assert main(["train", "--out", str(tmp_path / "run"),
                     "--steps", steps]) == 2
        assert "--steps must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, message", [
        (["oracle", "--scenarios", "0"], "--scenarios must be >= 1, got 0"),
        (["sweep-pbt", "--checkpoints", ".", "--scenarios", "0"],
         "--scenarios must be >= 2, got 0"),
        (["sweep-pbt", "--checkpoints", ".", "--scenarios", "1"],
         "--scenarios must be >= 2, got 1"),
        (["bench", "--calls", "0"], "--calls must be >= 1, got 0"),
        (["validate-se", "--cases", "0"], "--cases must be >= 1, got 0"),
        (["validate-se", "--realizations", "-3"],
         "--realizations must be >= 1, got -3"),
    ], ids=["oracle", "sweep-pbt-0", "sweep-pbt-1", "bench", "validate-se",
            "validate-se-realizations"])
    def test_count_flags_named(self, tmp_path, argv, message, capsys):
        out = tmp_path / "out.csv"
        argv = argv + (["--out", str(out)] if argv[0] != "validate-se"
                       else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_int_accepted_for_float(self, tmp_path):
        p = tmp_path / "ints.yaml"
        p.write_text("system: {area_side: 1000, se_min: 2}\n"
                     "ppo: {clip: 1, logstd_floor_init: -1}\n")
        conf = load_config(p)
        assert conf["system"].area_side == 1000
        assert conf["ppo"].clip == 1
        assert conf["ppo"].logstd_floor_init == -1

    def test_idle_backhaul_power_validated(self, tmp_path):
        p = tmp_path / "idle.yaml"
        p.write_text("system: {idle_backhaul_power: 0.5}\n")
        assert load_config(p)["system"].idle_backhaul_power == 0.5
        p.write_text("system: {idle_backhaul_power: -1.0}\n")
        with pytest.raises(ValueError, match="backhaul"):
            load_config(p)


class TestCli:
    def test_gen_eval_round_trip(self, cfg, tmp_path):
        conf = tmp_path / "c.yaml"
        conf.write_text("system: {M: 5, K: 3, N: 4, tau_p: 3}\n"
                        "ppo: {rollout_horizon: 64, epochs_per_update: 2,"
                        " minibatch: 32}\n")
        scen_dir = tmp_path / "scen"
        for seed in (1, 2):
            rc = main(["gen", "--config", str(conf), "--seed", str(seed),
                       "--out", str(scen_dir / f"s{seed}")])
            assert rc == 0
        rc = main(["train", "--config", str(conf), "--scheme", "drl_ao",
                   "--out", str(tmp_path / "run"), "--steps", "64"])
        assert rc == 0
        out = tmp_path / "eval.csv"
        rc = main(["eval", "--checkpoint",
                   str(tmp_path / "run" / "drl_ao.ckpt"),
                   "--scenarios", str(scen_dir), "--config", str(conf),
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3

    def test_eval_realizes_each_scenario_once(self, cfg, tmp_path,
                                              monkeypatch):
        scen_dir = tmp_path / "scen"
        for seed in (1, 2, 3):
            save_scenario(generate_scenario(cfg, seed), scen_dir / f"s{seed}")
        ckpt = train_scheme(cfg, "proposed", small_hyper(), master_seed=4,
                            out_dir=tmp_path / "run", episode_length=16,
                            total_steps=64)
        conf = tmp_path / "c.yaml"
        conf.write_text("system: {M: 5, K: 3, N: 4, tau_p: 3}\n")
        calls = []

        def counting_realize(action, sc, cfg_):
            calls.append(sc.seed)
            return realize(action, sc, cfg_)
        monkeypatch.setattr(cfee.cli, "realize", counting_realize)
        monkeypatch.setattr(cfee.harness, "realize", counting_realize)
        rc = main(["eval", "--checkpoint", str(ckpt), "--scenarios",
                   str(scen_dir), "--config", str(conf), "--out",
                   str(tmp_path / "eval.csv")])
        assert rc == 0
        assert sorted(calls) == [1, 2, 3]

    def test_eval_takes_dimensions_from_checkpoint(self, cfg, tmp_path,
                                                    capsys):
        # an N=4 checkpoint: without --config it runs at N=4, not at the
        # default N=20
        scen_dir = tmp_path / "scen"
        for seed in (1, 2):
            save_scenario(generate_scenario(cfg, seed), scen_dir / f"s{seed}")
        ckpt = train_scheme(cfg, "drl_ao", small_hyper(), master_seed=5,
                            out_dir=tmp_path / "run", episode_length=16,
                            total_steps=64)
        conf = tmp_path / "c.yaml"
        conf.write_text("system: {M: 5, K: 3, N: 4}\n")
        outs = []
        for extra in ([], ["--config", str(conf)]):
            out = tmp_path / f"eval{len(extra)}.csv"
            assert main(["eval", "--checkpoint", str(ckpt), "--scenarios",
                         str(scen_dir), "--out", str(out)] + extra) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        rows = [line.split(",") for line in outs[0].decode().splitlines()[1:]]
        # drl_ao gives every active AP all N antennas
        assert all(int(r[5]) == 4 * int(r[4]) for r in rows)

        conf.write_text("system: {N: 8}\n")
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--scenarios",
                     str(scen_dir), "--config", str(conf), "--out",
                     str(tmp_path / "bad.csv")]) == 2
        assert "N=8" in capsys.readouterr().err

    def test_eval_takes_system_from_checkpoint(self, cfg, tmp_path,
                                               capsys):
        # a tau_p=3 checkpoint: without --config it runs at tau_p=3, not at
        # the default 20, which changes the pre-log and so the EE
        scen_dir = tmp_path / "scen"
        scenarios = [generate_scenario(cfg, seed) for seed in (1, 2)]
        for sc in scenarios:
            save_scenario(sc, scen_dir / f"s{sc.seed}")
        ckpt = train_scheme(cfg, "drl_ao", small_hyper(), master_seed=6,
                            out_dir=tmp_path / "run", episode_length=16,
                            total_steps=64)
        conf = tmp_path / "c.yaml"
        conf.write_text("system: {M: 5, K: 3, N: 4, tau_p: 3}\n")
        outs = []
        for extra in ([], ["--config", str(conf)]):
            out = tmp_path / f"eval{len(extra)}.csv"
            assert main(["eval", "--checkpoint", str(ckpt), "--scenarios",
                         str(scen_dir), "--out", str(out)] + extra) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        ees = [float(line.split(",")[8]) for line in
               outs[0].splitlines()[1:]]
        lp = load_policy(ckpt)
        default_tau_p = SystemConfig(M=5, K=3, N=4)
        for sc, ee in zip(scenarios, ees):
            action = policy_action(sc, lp)
            assert ee == float("%.12g" % evaluate(
                sc, realize(action, sc, cfg), cfg).ee_mbits_per_joule)
            assert ee != float("%.12g" % evaluate(
                sc, realize(action, sc, default_tau_p),
                default_tau_p).ee_mbits_per_joule)

        for text, field in (("system: {tau_p: 20}\n", "tau_p=20"),
                            ("system: {idle_backhaul_power: 0.5}\n",
                             "idle_backhaul_power=0.5")):
            conf.write_text(text)
            capsys.readouterr()
            assert main(["eval", "--checkpoint", str(ckpt), "--scenarios",
                         str(scen_dir), "--config", str(conf), "--out",
                         str(tmp_path / "bad.csv")]) == 2
            assert field in capsys.readouterr().err

        # a checkpoint that records only M, K and N runs at the config's
        # other fields (the defaults without a config), as before
        rewrite_meta(ckpt, system=None)
        out = tmp_path / "mkn.csv"
        assert main(["eval", "--checkpoint", str(ckpt), "--scenarios",
                     str(scen_dir), "--out", str(out)]) == 0
        ees = [float(line.split(",")[8]) for line in
               out.read_text().splitlines()[1:]]
        assert ees[0] == float("%.12g" % evaluate(
            scenarios[0], realize(policy_action(scenarios[0], lp),
                                  scenarios[0], default_tau_p),
            default_tau_p).ee_mbits_per_joule)

    def test_validate_se_fail_names_worst_user(self, capsys):
        # case seed 1000104 has a user whose SE is about 1e-9 bit/s/Hz; the
        # relative MC error of that user fails the 3% bound
        rc = main(["validate-se", "--cases", "1", "--seed", "1000104",
                   "--realizations", "100000"])
        out = capsys.readouterr().out
        assert rc == 1
        line = out.splitlines()[0]
        assert "FAIL: worst user 2, closed-form SE 9.81e-10 bit/s/Hz" in line

    def test_oracle_csv_deterministic(self, tmp_path):
        conf = tmp_path / "c.yaml"
        conf.write_text("system: {M: 4, K: 2, N: 3, tau_p: 2}\n")
        outs = []
        for name in ("a.csv", "b.csv"):
            rc = main(["oracle", "--config", str(conf), "--scenarios", "3",
                       "--grid", "z=0.05:1:4,k=0:4:3,n=0:4:3",
                       "--seed", "0", "--out", str(tmp_path / name)])
            assert rc == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_oracle_reads_config_penalty(self, tmp_path):
        # the penalty cfee train uses (ppo.penalty) also scores the oracle
        grid = "z=0.05:1:4,k=0:4:3,n=0:4:3"
        conf = tmp_path / "c.yaml"
        outs = []
        for penalty in (1.0, 20.0):
            conf.write_text("system: {M: 4, K: 2, N: 3, tau_p: 2}\n"
                            f"ppo: {{penalty: {penalty}}}\n")
            out = tmp_path / f"oracle{penalty}.csv"
            assert main(["oracle", "--config", str(conf), "--scenarios",
                         "3", "--grid", grid, "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] != outs[1]
        cfg = SystemConfig(M=4, K=2, N=3, tau_p=2)
        scenarios = held_out_scenarios(cfg, 3, 0)
        results = grid_oracle(scenarios, parse_grid(grid), cfg, penalty=1.0)
        rows = ["%d,%.12g,%.12g,%.12g,%.12g,%.12g" % (
            sc.seed, r.action.zeta, r.action.kappa, r.action.nu, r.reward,
            r.ee_mbits_per_joule) for sc, r in zip(scenarios, results)]
        assert outs[0].splitlines()[1:] == rows

    def test_sweep_pbt_takes_system_from_checkpoints(self, cfg, tmp_path,
                                                     capsys):
        # a tau_p=3 checkpoint is swept at tau_p=3, with or without a
        # config that leaves tau_p unset; P_bt is the sweep's to set
        run = tmp_path / "run"
        ckpt = train_scheme(cfg, "drl_ao", small_hyper(), master_seed=8,
                            out_dir=run, episode_length=16, total_steps=64)
        conf = tmp_path / "c.yaml"

        def sweep(text=None):
            argv = ["sweep-pbt", "--checkpoints", str(run), "--values",
                    "0.25", "--scenarios", "5", "--out",
                    str(tmp_path / "sweep.csv")]
            if text is not None:
                conf.write_text(text)
                argv += ["--config", str(conf)]
            capsys.readouterr()
            rc = main(argv)
            return rc, (tmp_path / "sweep.csv").read_text() if rc == 0 \
                else capsys.readouterr().err

        outs = [sweep(), sweep("system: {M: 5, K: 3, N: 4}\n"),
                sweep("system: {p_bt_watts_per_gbps: 1.0}\n")]
        assert outs[0][0] == 0 and outs[0] == outs[1] == outs[2]
        ee = float(outs[0][1].splitlines()[1].split(",")[2])
        lp = load_policy(ckpt)
        for tau_p, same in ((3, True), (20, False)):
            sys_p = dataclasses.replace(cfg, tau_p=tau_p,
                                        p_bt_watts_per_gbps=0.25)
            ees = [r.ee_mbits_per_joule for _, r in evaluate_policy(
                lp, held_out_scenarios(sys_p, 5, 0), sys_p)]
            assert (ee == float("%.12g" % np.mean(ees))) == same

        rc, err = sweep("system: {tau_p: 20}\n")
        assert rc == 2 and "tau_p=20" in err
        train_scheme(dataclasses.replace(cfg, tau_p=2), "drl_ap",
                     small_hyper(), master_seed=9, out_dir=run,
                     episode_length=16, total_steps=64)
        rc, err = sweep()
        assert rc == 2 and "tau_p=3" in err and "tau_p=2" in err

    def test_bench_takes_system_from_checkpoint(self, cfg, tmp_path,
                                                capsys, monkeypatch):
        # the checkpoint's system is timed (M=5 is also its --m-values)
        ckpt = train_scheme(cfg, "drl_ao", small_hyper(), master_seed=10,
                            out_dir=tmp_path, episode_length=16,
                            total_steps=64)
        timed = []
        monkeypatch.setattr(cfee.cli, "bench_runtime",
                            lambda m, c, **kw: timed.append(c) or
                            bench_runtime(m, c, **kw))
        conf = tmp_path / "c.yaml"
        argv = ["bench", "--checkpoint", str(ckpt), "--m-values", "5",
                "--calls", "5", "--out", str(tmp_path / "bench.csv")]
        conf.write_text("system: {M: 5, K: 3, N: 4}\n")
        assert main(argv) == 0 and main(argv + ["--config", str(conf)]) == 0
        assert timed == [cfg, cfg]
        for text, field in (("system: {tau_p: 20}\n", "tau_p=20"),
                            ("system: {M: 60}\n", "M=60")):
            conf.write_text(text)
            capsys.readouterr()
            assert main(argv + ["--config", str(conf)]) == 2
            assert field in capsys.readouterr().err

    def test_bench_m_values(self, cfg, tmp_path, capsys, monkeypatch):
        # a checkpoint is timed at its own M by default, and only there;
        # one size writes its row but no growth exponent
        ckpt = train_scheme(cfg, "drl_ao", small_hyper(), master_seed=11,
                            out_dir=tmp_path, episode_length=16,
                            total_steps=64)
        out = tmp_path / "bench.csv"
        argv = ["bench", "--calls", "5", "--out", str(out)]
        capsys.readouterr()
        assert main(argv + ["--checkpoint", str(ckpt)]) == 0
        assert [line.split(",")[0] for line in
                out.read_text().splitlines()[1:]] == ["5"]
        assert "two distinct M" in capsys.readouterr().out
        assert main(argv + ["--checkpoint", str(ckpt),
                            "--m-values", "5,10"]) == 2
        err = capsys.readouterr().err
        assert "trained at M=5" in err and "at M=10" in err
        assert main(argv + ["--m-values", "6"]) == 0
        assert "two distinct M" in capsys.readouterr().out
        timed = []
        monkeypatch.setattr(cfee.cli, "bench_runtime",
                            lambda m, c, **kw: timed.append(m) or
                            bench_runtime([5, 6], c, **kw))
        assert main(argv) == 0
        assert timed == [[20, 40, 60, 80, 100]]

    def test_gen_csv_deterministic(self, tmp_path):
        blobs = []
        for name in ("g1", "g2"):
            rc = main(["gen", "--seed", "7", "--out", str(tmp_path / name)])
            assert rc == 0
            blobs.append((tmp_path / name / "beta.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_validate_se_subcommand(self, capsys):
        rc = main(["validate-se", "--cases", "2",
                   "--realizations", "100000"])
        assert rc == 0
        assert "validation passed" in capsys.readouterr().out

    def test_missing_checkpoint_is_error_exit(self, tmp_path):
        rc = main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt"),
                   "--scenarios", str(tmp_path)])
        assert rc in (1, 2)
