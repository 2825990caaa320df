import dataclasses
import json
import struct

import numpy as np
import pytest
import yaml

import cfee.cli
import cfee.harness
from cfee.cli import main
from cfee.config import SystemConfig
from cfee.harness import (ENV_TYPES, bench_runtime, default_grid,
                          evaluate_policy, grid_oracle, grid_oracle_one,
                          held_out_scenarios, latency_growth_exponent,
                          load_config, load_policy, parse_grid,
                          policy_action, policy_features, scheme_action,
                          scheme_bounds, scheme_coeffs, sweep_pbt,
                          train_scheme, validate_se)
from cfee.alloc import Action, realize
from cfee.env import CellFreeEnv, batch_rewards
from cfee.netgen import Scenario, generate_scenario, save_scenario
from cfee.perf import evaluate
from cfee.ppo import PpoHyper


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


class TestDominantApGeometry:
    def test_oracle_shuts_down_remote_aps(self):
        # one AP next to every user, the rest far away: small zeta wins
        cfg = SystemConfig(M=4, K=2, N=4, tau_p=2, shadow_sigma_db=0.0)
        cfg.ap_positions_override = np.array(
            [[500.0, 500.0], [10.0, 10.0], [990.0, 10.0], [10.0, 990.0]])
        cfg.user_positions_override = np.array(
            [[495.0, 500.0], [505.0, 500.0]])
        sc = generate_scenario(cfg, 0)
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

    @pytest.mark.filterwarnings("ignore:Polyfit")  # one M: one point
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
