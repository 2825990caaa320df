import json
import logging
import struct

import numpy as np
import pytest

import cfee.nets
import cfee.ppo
from cfee.nets import Adam, forward, init_mlp
from cfee.ppo import (PpoHyper, PpoTrainer, RolloutBuffer,
                      SquashedGaussianPolicy, clip_grad_norm,
                      clipped_surrogate, gae, load_checkpoint, ppo_update,
                      save_checkpoint)


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
        raw, action, _ = pol.sample(state, np.random.default_rng(2))
        det = pol.deterministic_action(state)
        assert np.allclose(action, det, atol=1e-6)

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
        raw, action, logp = pol.sample(state, rng)
        mean = forward(pol.actor, state)
        assert logp == pytest.approx(float(pol.log_prob(raw, mean)))
        assert np.allclose(action, pol.squash(raw))


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


def optimizers(policy, critic, hyper):
    return (Adam(policy.params, lr=hyper.lr_actor),
            Adam(critic.flat, lr=hyper.lr_critic))


def fill_buffer(buf, policy, critic, rewards_fn, rng):
    obs = rng.normal(size=(buf.horizon, buf.states.shape[1]))
    for i in range(buf.horizon):
        raw, action, logp = policy.sample(obs[i], rng)
        v = float(forward(critic, obs[i])[0])
        buf.add(obs[i], raw, logp, rewards_fn(obs[i], action), v,
                i == buf.horizon - 1)


class TestUpdate:
    def test_zero_advantage_leaves_actor(self):
        pol = make_policy()
        critic = init_mlp((4, 16, 16, 1), np.random.default_rng(8))
        rng = np.random.default_rng(9)
        buf = RolloutBuffer(64, 4, 2)
        fill_buffer(buf, pol, critic, lambda s, a: 0.0, rng)
        # make every advantage exactly zero: constant rewards equal to
        # values along a done-every-step sequence
        buf.dones[:] = True
        buf.rewards[:] = 1.0
        buf.values[:] = 1.0
        before = pol.actor.flat.copy()
        hyper = PpoHyper(rollout_horizon=64, epochs_per_update=2,
                         minibatch=32)
        ppo_update(buf, pol, critic, *optimizers(pol, critic, hyper), hyper,
                   rng, 0.0)
        after = pol.actor.flat
        assert np.max(np.abs(after - before)) < 1e-6

    def test_critic_regresses_to_return(self):
        pol = make_policy()
        rng = np.random.default_rng(10)
        critic = init_mlp((4, 16, 16, 1), rng)
        state = rng.normal(size=4)
        buf = RolloutBuffer(64, 4, 2)
        for i in range(64):
            raw, _, logp = pol.sample(state, rng)
            buf.add(state, raw, logp, 3.0,
                    float(forward(critic, state)[0]), True)
        hyper = PpoHyper(rollout_horizon=64, epochs_per_update=5,
                         minibatch=64, lr_critic=1e-2)
        opts = optimizers(pol, critic, hyper)
        errs = []
        for _ in range(30):
            errs.append(abs(float(forward(critic, state)[0]) - 3.0))
            ppo_update(buf, pol, critic, *opts, hyper, rng, 0.0)
        assert errs[-1] < 0.05
        assert errs[-1] < errs[0]

    def test_bandit_moves_to_rewarding_bound(self):
        # reward = action: the optimum sits at the upper bound
        class Bandit:
            def __init__(self):
                self.t = 0

            def reset(self, seed):
                self.rng = np.random.default_rng(seed)
                self.t = 0
                return self.rng.normal(size=3)

            def step(self, a):
                self.t += 1
                return self.rng.normal(size=3), float(a[0]), self.t >= 16

        rng = np.random.default_rng(11)
        pol = SquashedGaussianPolicy(
            init_mlp((3, 16, 16, 1), rng, final_scale=0.01),
            np.array([-1.0]), np.array([1.0]))
        critic = init_mlp((3, 16, 16, 1), rng)
        hyper = PpoHyper(rollout_horizon=128, epochs_per_update=10,
                         minibatch=64)
        trainer = PpoTrainer(Bandit(), pol, critic, hyper, master_seed=0,
                             to_coeffs=lambda v: (v[0], 0.0, 0.0))
        logs = trainer.train(total_steps=128 * 60)
        assert logs[-1]["mean_zeta"] > 0.5  # mean action toward +1
        assert logs[-1]["mean_reward"] > logs[0]["mean_reward"]

    def test_divergence_guard(self):
        pol = make_policy()
        critic = init_mlp((4, 16, 16, 1), np.random.default_rng(12))
        rng = np.random.default_rng(13)
        buf = RolloutBuffer(32, 4, 2)
        fill_buffer(buf, pol, critic, lambda s, a: 1.0, rng)
        buf.rewards[0] = np.nan
        hyper = PpoHyper(rollout_horizon=32, minibatch=32)
        with pytest.raises(RuntimeError):
            ppo_update(buf, pol, critic, *optimizers(pol, critic, hyper),
                       hyper, rng, 0.0)


class TestDeterminism:
    def test_training_bit_reproducible(self):
        class Env:
            def reset(self, seed):
                self.rng = np.random.default_rng(seed)
                self.t = 0
                return self.rng.normal(size=3)

            def step(self, a):
                self.t += 1
                return (self.rng.normal(size=3),
                        float(a[0] - a[0] ** 2), self.t >= 8)

        def run():
            rng = np.random.default_rng(5)
            pol = SquashedGaussianPolicy(
                init_mlp((3, 8, 8, 1), rng), np.array([0.0]),
                np.array([1.0]))
            critic = init_mlp((3, 8, 8, 1), rng)
            hyper = PpoHyper(rollout_horizon=32, epochs_per_update=2,
                             minibatch=16)
            trainer = PpoTrainer(Env(), pol, critic, hyper, master_seed=7,
                                 to_coeffs=lambda v: (v[0], 0, 0))
            trainer.train(total_steps=128)
            return pol.params.copy(), critic.flat.copy()

        a1, c1 = run()
        a2, c2 = run()
        assert np.array_equal(a1, a2)
        assert np.array_equal(c1, c2)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        pol = make_policy(obs_dim=6, act_dim=3, seed=20, lo=0.0, hi=4.0)
        pol.logstd[:] = [-0.3, -0.5, -0.7]
        critic = init_mlp((6, 16, 16, 1), np.random.default_rng(21))
        hyper = PpoHyper(rollout_horizon=512)
        meta = {"scheme": "proposed", "note": "test"}
        path = tmp_path / "test.ckpt"
        save_checkpoint(path, pol, critic, hyper, meta)
        pol2, critic2, hyper2, meta2 = load_checkpoint(path)
        assert meta2 == meta
        assert hyper2 == hyper
        assert np.array_equal(pol2.logstd, pol.logstd)
        assert np.array_equal(pol2.lo, pol.lo)
        for a, b in zip(pol.actor.arrays(), pol2.actor.arrays()):
            assert np.array_equal(a, b)
        for a, b in zip(critic.arrays(), critic2.arrays()):
            assert np.array_equal(a, b)
        x = np.random.default_rng(22).normal(size=6)
        assert np.allclose(pol2.deterministic_action(x),
                           pol.deterministic_action(x))

    def test_legacy_hyper_fields_dropped(self, tmp_path, caplog):
        # headers written before KL early stopping, critic-only epochs and
        # the optimizer choice were removed carry those fields
        pol = make_policy(obs_dim=5, act_dim=3, seed=23)
        critic = init_mlp((5, 16, 16, 1), np.random.default_rng(24))
        path = tmp_path / "old.ckpt"
        save_checkpoint(path, pol, critic, PpoHyper(clip=0.3), {"k": 1})
        with caplog.at_level(logging.WARNING, logger="cfee.ppo"):
            load_checkpoint(path)
        assert caplog.text == ""   # the retired fields at their defaults

        blob = path.read_bytes()
        hlen, = struct.unpack("<Q", blob[12:20])
        header = json.loads(blob[20:20 + hlen])
        header["hyper"].update(target_kl=0.02, critic_extra_epochs=3,
                               optimizer="sgd")
        new = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(blob[:12] + struct.pack("<Q", len(new)) + new
                         + blob[20 + hlen:])
        with caplog.at_level(logging.WARNING, logger="cfee.ppo"):
            pol2, critic2, hyper2, meta2 = load_checkpoint(path)
        for name in ("target_kl=0.02", "critic_extra_epochs=3",
                     "optimizer='sgd'"):
            assert name in caplog.text
        assert hyper2 == PpoHyper(clip=0.3)
        assert meta2 == {"k": 1}
        assert np.array_equal(pol2.params, pol.params)
        assert np.array_equal(critic2.flat, critic.flat)

    def test_load_builds_networks_without_init(self, tmp_path, monkeypatch):
        pol = make_policy(obs_dim=6, act_dim=3, seed=25, lo=0.0, hi=4.0)
        pol.logstd[:] = [-0.2, -0.4, -0.6]
        critic = init_mlp((6, 16, 16, 1), np.random.default_rng(26))
        path = tmp_path / "fast.ckpt"
        save_checkpoint(path, pol, critic, PpoHyper(), {})

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
