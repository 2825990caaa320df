import json
import logging
import struct
from dataclasses import asdict

import numpy as np
import pytest

import cfee.nets
import cfee.ppo
from cfee.harness import load_config
from cfee.nets import Adam, forward, init_mlp
from cfee.ppo import (GROUP_SIZE, PpoHyper, PpoTrainer, RolloutBuffer,
                      SquashedGaussianPolicy, clip_grad_norm,
                      clipped_surrogate, gae, group_advantages,
                      load_checkpoint, ppo_update, save_checkpoint)


def make_policy(obs_dim=4, act_dim=2, seed=0, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    actor = init_mlp((obs_dim, 16, 16, act_dim), rng, final_scale=0.01)
    return SquashedGaussianPolicy(actor, np.full(act_dim, lo),
                                  np.full(act_dim, hi))


class TestSampling:
    def test_bounds_respected(self):
        pol = make_policy(lo=0.05, hi=1.0)
        rng = np.random.default_rng(1)
        state = rng.normal(size=4)
        mean = forward(pol.actor, state)
        raws = mean + np.exp(pol.logstd) * rng.standard_normal((1_000_000, 2))
        actions = pol.squash(raws)
        assert actions.min() >= 0.05
        assert actions.max() <= 1.0

    def test_zero_variance_limit(self):
        pol = make_policy()
        pol.logstd[:] = -20.0
        state = np.ones(4)
        raw, action, _ = pol.sample(state, np.random.default_rng(2), 1)
        det = pol.deterministic_action(state)
        assert np.allclose(action[0], det, atol=1e-6)

    def test_log_prob_matches_histogram(self):
        # 1D squashed gaussian: histogram density vs exp(log_prob)
        pol = make_policy(obs_dim=3, act_dim=1, lo=0.0, hi=4.0)
        rng = np.random.default_rng(3)
        state = rng.normal(size=3)
        mean = forward(pol.actor, state)
        n = 1_000_000
        raws = mean + np.exp(pol.logstd) * rng.standard_normal((n, 1))
        actions = pol.squash(raws)[:, 0]
        edges = np.quantile(actions, [0.3, 0.45, 0.55, 0.7])
        for lo, hi in zip(edges[:-1], edges[1:]):
            frac = np.mean((actions >= lo) & (actions < hi))
            mid = 0.5 * (lo + hi)
            # invert the squash at the bin midpoint
            s = (mid - pol.lo[0]) / (pol.hi[0] - pol.lo[0])
            raw_mid = np.log(s / (1 - s))
            density = np.exp(pol.log_prob(np.array([raw_mid]), mean))
            assert frac / (hi - lo) == pytest.approx(density, rel=0.02)

    def test_sample_logp_consistent(self):
        pol = make_policy()
        rng = np.random.default_rng(4)
        state = rng.normal(size=4)
        raw, action, logp = pol.sample(state, rng, GROUP_SIZE)
        mean = forward(pol.actor, state)
        assert raw.shape == action.shape == (GROUP_SIZE, 2)
        assert np.array_equal(logp, pol.log_prob(raw, mean))
        assert np.array_equal(action, pol.squash(raw))


class TestGae:
    def test_single_step(self):
        adv = gae(np.array([2.0]), np.array([0.5]), 1.5,
                  np.array([False]), 0.9, 0.8)
        assert adv[0] == pytest.approx(2.0 + 0.9 * 1.5 - 0.5)

    def test_lambda_zero_is_td_error(self):
        rng = np.random.default_rng(5)
        r = rng.normal(size=6)
        v = rng.normal(size=6)
        dones = np.array([False, False, True, False, False, False])
        adv = gae(r, v, 0.7, dones, 0.99, 0.0)
        for t in range(6):
            nv = 0.0 if dones[t] else (0.7 if t == 5 else v[t + 1])
            assert adv[t] == pytest.approx(r[t] + 0.99 * nv - v[t])

    def test_undiscounted_suffix_sums(self):
        r = np.array([1.0, 2.0, 3.0])
        adv = gae(r, np.zeros(3), 0.0, np.array([False, False, True]),
                  1.0, 1.0)
        assert np.allclose(adv, [6.0, 5.0, 3.0])

    def test_lambda_one_return_identity(self):
        # A_t + V(s_t) equals the discounted return at lambda = 1
        rng = np.random.default_rng(6)
        T = 50
        r = rng.normal(size=T)
        v = rng.normal(size=T)
        dones = np.zeros(T, dtype=bool)
        dones[[19, 49]] = True
        adv = gae(r, v, 0.0, dones, 0.97, 1.0)
        returns = np.zeros(T)
        acc = 0.0
        for t in range(T - 1, -1, -1):
            acc = 0.0 if dones[t] else acc
            acc = r[t] + 0.97 * acc
            returns[t] = acc
        assert np.allclose(adv + v, returns, atol=1e-10)


class TestClippedSurrogate:
    def test_unit_ratio(self):
        adv = np.array([1.0, -2.0, 0.5])
        assert np.allclose(clipped_surrogate(np.ones(3), adv, 0.2), adv)

    def test_positive_adv_clip_binds(self):
        assert clipped_surrogate(np.array([2.0]), np.array([3.0]),
                                 0.2)[0] == pytest.approx(1.2 * 3.0)

    def test_negative_adv_min_picks_pessimistic(self):
        # ratio 0.5, adv = -1: min(0.5 * -1, 0.8 * -1) = -0.8
        assert clipped_surrogate(np.array([0.5]), np.array([-1.0]),
                                 0.2)[0] == pytest.approx(-0.8)

    def test_never_exceeds_clip_bound_for_positive_adv(self):
        rng = np.random.default_rng(7)
        ratio = rng.uniform(0, 3, size=1000)
        adv = np.abs(rng.normal(size=1000))
        surr = clipped_surrogate(ratio, adv, 0.2)
        assert np.all(surr <= 1.2 * adv + 1e-12)


def fill_buffer(buf, policy, rewards_fn, rng):
    """One group per random state; rewards_fn(state, actions) gives the
    group's rewards."""
    for _ in range(buf.horizon // GROUP_SIZE):
        state = rng.normal(size=buf.states.shape[1])
        raws, actions, logps = policy.sample(state, rng, GROUP_SIZE)
        buf.add(state, raws, logps, rewards_fn(state, actions))


def pad_to_coeffs(actions):
    """(G, dim) actions as the first columns of (G, 3) coefficient rows."""
    return np.pad(actions, ((0, 0), (0, 3 - actions.shape[1])))


class GroupEnv:
    """A contextual bandit with Gaussian states; `reward(coeffs)` scores
    each (G, 3) group of coefficient rows. Counts its steps."""

    def __init__(self, reward, obs_dim=3, episode_length=16):
        self.reward = reward
        self.obs_dim = obs_dim
        self.episode_length = episode_length
        self.steps = []

    def reset(self, seed):
        self.rng = np.random.default_rng(seed)
        self.t = 0
        return self.rng.normal(size=self.obs_dim)

    def step(self, coeffs):
        self.steps.append(np.shape(coeffs))
        self.t += 1
        return (self.rng.normal(size=self.obs_dim), self.reward(coeffs),
                self.t >= self.episode_length)


class TestGroupAdvantages:
    def test_shift_of_one_group_leaves_advantages(self):
        rng = np.random.default_rng(40)
        rewards = rng.normal(size=32 * GROUP_SIZE)
        shifted = rewards.copy()
        shifted[3 * GROUP_SIZE:4 * GROUP_SIZE] += 17.5
        assert np.allclose(group_advantages(shifted),
                           group_advantages(rewards), rtol=0, atol=1e-12)

    def test_identical_rewards_give_zero_not_nan(self):
        assert np.array_equal(group_advantages(np.full(64, 0.1)),
                              np.zeros(64))
        rewards = np.random.default_rng(41).normal(size=64)
        rewards[:GROUP_SIZE] = -3.7
        adv = group_advantages(rewards)
        assert np.all(np.isfinite(adv))
        assert np.max(np.abs(adv[:GROUP_SIZE])) < 1e-12

    def test_within_group_standardized(self):
        rng = np.random.default_rng(42)
        rewards = rng.normal(size=4 * GROUP_SIZE) * np.repeat(
            [1.0, 10.0, 0.1, 3.0], GROUP_SIZE)
        adv = group_advantages(rewards).reshape(-1, GROUP_SIZE)
        assert np.allclose(adv.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(adv.std(axis=1), 1.0, atol=1e-6)

    def test_horizon_must_be_multiple_of_group(self, tmp_path):
        with pytest.raises(ValueError, match="rollout_horizon"):
            PpoHyper(rollout_horizon=GROUP_SIZE * 8 + 4).validate()
        p = tmp_path / "c.yaml"
        p.write_text(f"ppo: {{rollout_horizon: {GROUP_SIZE * 8 + 4}}}\n")
        with pytest.raises(ValueError, match="rollout_horizon"):
            load_config(p)


class TestUpdate:
    def test_zero_advantage_leaves_actor(self):
        pol = make_policy()
        rng = np.random.default_rng(9)
        buf = RolloutBuffer(64, 4, 2)
        # a reward that depends on the state only: every group is constant
        fill_buffer(buf, pol, lambda s, a: np.full(len(a), s[0]), rng)
        before = pol.actor.flat.copy()
        hyper = PpoHyper(rollout_horizon=64, epochs_per_update=2,
                         minibatch=32)
        ppo_update(buf, pol, Adam(pol.params, lr=hyper.lr_actor), hyper, rng)
        after = pol.actor.flat
        assert np.max(np.abs(after - before)) < 1e-6

    def test_bandit_moves_to_rewarding_bound(self):
        # reward = action: the optimum sits at the upper bound
        rng = np.random.default_rng(11)
        pol = SquashedGaussianPolicy(
            init_mlp((3, 16, 16, 1), rng, final_scale=0.01),
            np.array([-1.0]), np.array([1.0]))
        hyper = PpoHyper(rollout_horizon=128, epochs_per_update=10,
                         minibatch=64)
        trainer = PpoTrainer(GroupEnv(lambda c: c[:, 0]), pol, hyper,
                             master_seed=0, to_coeffs=pad_to_coeffs)
        logs = trainer.train(total_steps=128 * 60)
        assert logs[-1]["mean_zeta"] > 0.5  # mean action toward +1
        assert logs[-1]["mean_reward"] > logs[0]["mean_reward"]

    def test_one_env_step_per_group(self, tmp_path):
        rng = np.random.default_rng(14)
        pol = SquashedGaussianPolicy(init_mlp((3, 8, 1), rng),
                                     np.array([0.0]), np.array([1.0]))
        hyper = PpoHyper(rollout_horizon=64, epochs_per_update=1,
                         minibatch=32)
        env = GroupEnv(lambda c: c[:, 0] * np.arange(len(c)))
        trainer = PpoTrainer(env, pol, hyper, master_seed=1,
                             to_coeffs=pad_to_coeffs)
        logs = trainer.train(total_steps=64, log_path=tmp_path / "log.csv")
        assert env.steps == [(GROUP_SIZE, 3)] * (64 // GROUP_SIZE)
        assert [row["step"] for row in logs] == [64]
        header = (tmp_path / "log.csv").read_text().splitlines()[0]
        assert header.split(",")[3] == "group_reward_std"
        assert logs[0]["group_reward_std"] > 0

    def test_divergence_guard(self):
        pol = make_policy()
        rng = np.random.default_rng(13)
        buf = RolloutBuffer(32, 4, 2)
        fill_buffer(buf, pol, lambda s, a: rng.normal(size=len(a)), rng)
        buf.rewards[0] = np.nan
        hyper = PpoHyper(rollout_horizon=32, minibatch=32)
        with pytest.raises(RuntimeError):
            ppo_update(buf, pol, Adam(pol.params, lr=hyper.lr_actor), hyper,
                       rng)


class TestDeterminism:
    def test_training_bit_reproducible(self):
        def run():
            rng = np.random.default_rng(5)
            pol = SquashedGaussianPolicy(
                init_mlp((3, 8, 8, 1), rng), np.array([0.0]),
                np.array([1.0]))
            hyper = PpoHyper(rollout_horizon=32, epochs_per_update=2,
                             minibatch=16)
            env = GroupEnv(lambda c: c[:, 0] - c[:, 0] ** 2,
                           episode_length=8)
            trainer = PpoTrainer(env, pol, hyper, master_seed=7,
                                 to_coeffs=pad_to_coeffs)
            trainer.train(total_steps=128)
            return pol.params.copy()

        assert np.array_equal(run(), run())


def header_and_payload(path):
    blob = path.read_bytes()
    hlen, = struct.unpack("<Q", blob[12:20])
    return json.loads(blob[20:20 + hlen]), blob[20 + hlen:]


def write_critic_checkpoint(path, policy, critic, hyper_fields, meta):
    """A version-1 file as written while PPO had a critic: the critic's
    sizes in the header and its parameters after the policy's."""
    header = {
        "actor_sizes": list(policy.actor.sizes),
        "critic_sizes": list(critic.sizes),
        "action_lo": policy.lo.tolist(),
        "action_hi": policy.hi.tolist(),
        "hyper": hyper_fields,
        "meta": meta,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(b"CFEECKPT" + struct.pack("<I", 1)
                     + struct.pack("<Q", len(blob)) + blob
                     + policy.params.astype("<f8").tobytes()
                     + critic.flat.astype("<f8").tobytes())


def critic_era_hyper(**fields):
    """PpoHyper fields as a critic-era header recorded them."""
    return {**asdict(PpoHyper(clip=0.3)), "discount": 0.0,
            "gae_lambda": 0.95, "lr_critic": 1e-3, "critic_extra_epochs": 0,
            "optimizer": "adam", "target_kl": 0.0, "lr_decay": True, **fields}


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        pol = make_policy(obs_dim=6, act_dim=3, seed=20, lo=0.0, hi=4.0)
        pol.logstd[:] = [-0.3, -0.5, -0.7]
        hyper = PpoHyper(rollout_horizon=512)
        meta = {"scheme": "proposed", "note": "test"}
        path = tmp_path / "test.ckpt"
        save_checkpoint(path, pol, hyper, meta)
        pol2, critic2, hyper2, meta2 = load_checkpoint(path)
        assert meta2 == meta
        assert hyper2 == hyper
        assert pol2.params.tobytes() == pol.params.tobytes()
        assert np.array_equal(pol2.lo, pol.lo)
        assert critic2.n_params() == 0 and critic2.arrays() == []
        header, payload = header_and_payload(path)
        assert header["critic_sizes"] == []
        assert payload == pol.params.astype("<f8").tobytes()
        x = np.random.default_rng(22).normal(size=6)
        assert np.array_equal(pol2.deterministic_action(x),
                              pol.deterministic_action(x))

    def test_critic_file_loads_silently(self, tmp_path, caplog):
        pol = make_policy(obs_dim=5, act_dim=3, seed=23)
        critic = init_mlp((5, 16, 16, 1), np.random.default_rng(24))
        path = tmp_path / "old.ckpt"
        write_critic_checkpoint(path, pol, critic, critic_era_hyper(),
                                {"k": 1})
        with caplog.at_level(logging.WARNING, logger="cfee.ppo"):
            pol2, critic2, hyper2, meta2 = load_checkpoint(path)
        assert caplog.text == ""   # the retired fields at their defaults
        assert hyper2 == PpoHyper(clip=0.3)
        assert meta2 == {"k": 1}
        assert pol2.params.tobytes() == pol.params.tobytes()
        assert critic2.sizes == critic.sizes
        assert critic2.flat.tobytes() == critic.flat.tobytes()

    def test_legacy_hyper_fields_dropped(self, tmp_path, caplog):
        # headers written with KL early stopping, critic-only epochs, the
        # optimizer choice, a discounted critic or a constant learning rate
        # carry those fields
        pol = make_policy(obs_dim=5, act_dim=3, seed=23)
        critic = init_mlp((5, 16, 16, 1), np.random.default_rng(24))
        path = tmp_path / "old.ckpt"
        write_critic_checkpoint(
            path, pol, critic,
            critic_era_hyper(target_kl=0.02, critic_extra_epochs=3,
                             optimizer="sgd", discount=0.99, lr_decay=False),
            {"k": 1})
        with caplog.at_level(logging.WARNING, logger="cfee.ppo"):
            pol2, critic2, hyper2, meta2 = load_checkpoint(path)
        for name in ("target_kl=0.02", "critic_extra_epochs=3",
                     "optimizer='sgd'", "discount=0.99", "lr_decay=False"):
            assert name in caplog.text
        assert "gae_lambda" not in caplog.text
        assert hyper2 == PpoHyper(clip=0.3)
        assert meta2 == {"k": 1}
        assert np.array_equal(pol2.params, pol.params)
        assert np.array_equal(critic2.flat, critic.flat)

    def test_load_builds_networks_without_init(self, tmp_path, monkeypatch):
        pol = make_policy(obs_dim=6, act_dim=3, seed=25, lo=0.0, hi=4.0)
        pol.logstd[:] = [-0.2, -0.4, -0.6]
        critic = init_mlp((6, 16, 16, 1), np.random.default_rng(26))
        path = tmp_path / "fast.ckpt"
        write_critic_checkpoint(path, pol, critic, critic_era_hyper(), {})

        def no_init(*args, **kwargs):
            raise AssertionError("load_checkpoint ran init_mlp")
        monkeypatch.setattr(cfee.nets, "init_mlp", no_init)
        monkeypatch.setattr(cfee.ppo, "init_mlp", no_init, raising=False)
        pol2, critic2, _, _ = load_checkpoint(path)
        assert pol2.params.tobytes() == pol.params.tobytes()
        assert critic2.flat.tobytes() == critic.flat.tobytes()
        assert pol2.actor.sizes == pol.actor.sizes
        assert critic2.sizes == critic.sizes

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestClipGradNorm:
    def test_matches_per_array_norm(self):
        # bit-equal to the norm of the gradient as a list of per-layer
        # arrays, each array's squares summed in turn
        rng = np.random.default_rng(30)
        pol = make_policy(obs_dim=50, act_dim=3, seed=31)
        for _ in range(20):
            arrays = [rng.normal(size=a.shape)
                      for a in pol.actor.arrays() + [pol.logstd]]
            grad = np.concatenate([a.ravel() for a in arrays])
            expected = float(np.sqrt(sum(float((g * g).sum())
                                         for g in arrays)))
            assert clip_grad_norm(grad, 0.5, pol.starts) == expected
            assert np.array_equal(grad, np.concatenate(
                [(a * (0.5 / expected)).ravel() for a in arrays]))

    def test_below_bound_untouched(self):
        grad = np.array([0.3, 0.4])
        assert clip_grad_norm(grad, 1.0) == pytest.approx(0.5)
        assert np.array_equal(grad, [0.3, 0.4])
