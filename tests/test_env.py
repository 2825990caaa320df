import logging

import numpy as np
import pytest

from cfee.alloc import Action, realize
from cfee.config import SystemConfig
from cfee.env import CellFreeEnv, FeatureNormalizer, batch_rewards
from cfee.perf import evaluate


@pytest.fixture
def cfg():
    return SystemConfig(M=4, K=3, N=5, tau_p=3)


def reward(ee_mbits, shortfalls, penalty=20.0):
    return float(batch_rewards(ee_mbits * 1e6, np.sum(shortfalls), penalty))


class TestReward:
    def test_no_violation(self):
        assert reward(12.7, [0, 0]) == pytest.approx(12.7)

    def test_hand_value(self):
        # EE 10 Mbit/J, one user 0.5 below the floor: 10 - 20*0.5 = 0
        assert reward(10.0, [0.5, 0.0]) == pytest.approx(0.0)

    def test_boundary_no_penalty(self):
        assert reward(5.0, [0.0, 0.0, 0.0]) == pytest.approx(5.0)

    def test_penalty_monotone(self):
        assert reward(8.0, [0.2]) < reward(8.0, [0.1])


class TestFeatureNormalizer:
    def test_standardizes_wide_range(self):
        rng = np.random.default_rng(0)
        norm = FeatureNormalizer(6, warmup=200)
        # beta spanning ~10 orders of magnitude -> dB spread ~100
        for _ in range(200):
            beta = 10 ** rng.uniform(-12, -2, size=6)
            norm.update(10 * np.log10(beta))
        out = norm.transform(10 * np.log10(10 ** rng.uniform(-12, -2, 6)))
        assert np.all(np.abs(out) < 5)

    def test_freezes_after_warmup(self):
        norm = FeatureNormalizer(2, warmup=3)
        for i in range(5):
            norm.update(np.array([float(i), float(i)]))
        assert norm.count == 3
        assert norm.frozen

    def test_round_trip_state(self):
        norm = FeatureNormalizer(2, warmup=10)
        for i in range(4):
            norm.update(np.array([i * 1.0, -i * 2.0]))
        back = FeatureNormalizer.from_state_dict(norm.state_dict())
        x = np.array([0.3, -0.7])
        assert np.allclose(back.transform(x), norm.transform(x))


class TestEnv:
    def test_reset_deterministic(self, cfg):
        e1, e2 = CellFreeEnv(cfg), CellFreeEnv(cfg)
        f1, f2 = e1.reset(123), e2.reset(123)
        assert np.array_equal(f1, f2)
        assert np.array_equal(e1.scenario.beta, e2.scenario.beta)
        assert e1.slot_index == 1

    def test_feature_length(self, cfg):
        env = CellFreeEnv(cfg)
        assert env.reset(0).shape == (cfg.M * cfg.K,)

    def test_reward_decomposition(self, cfg):
        env = CellFreeEnv(cfg, penalty=20.0)
        env.reset(7)
        sc = env.scenario
        action = Action(0.5, 1.0, 1.0)
        _, rewards, _ = env.step((0.5, 1.0, 1.0))
        rep = evaluate(sc, realize(action, sc, cfg), cfg)
        expected = rep.ee_mbits_per_joule - 20.0 * rep.qos_shortfall.sum()
        assert rewards.shape == (1,)
        assert rewards[0] == pytest.approx(expected, rel=1e-15)

    def test_group_rewards_match_one_action_path(self, cfg):
        # one step scores a group on one scenario; each reward has the bits
        # of realize + evaluate on that action alone
        env = CellFreeEnv(cfg, penalty=20.0)
        env.reset(8)
        sc = env.scenario
        rng = np.random.default_rng(0)
        group = np.column_stack([rng.uniform(0.05, 1.0, 8),
                                 rng.uniform(0.0, 4.0, 8),
                                 rng.uniform(0.0, 4.0, 8)])
        group[3] = group[5]
        _, rewards, _ = env.step(group)
        assert rewards.shape == (8,)
        for a, r in zip(group, rewards):
            rep = evaluate(sc, realize(Action(*a), sc, cfg), cfg)
            assert r == batch_rewards(rep.ee_bits_per_joule,
                                      rep.qos_shortfall.sum(), 20.0)

    def test_episode_terminates(self, cfg):
        env = CellFreeEnv(cfg, episode_length=3)
        env.reset(1)
        dones = []
        for _ in range(3):
            _, _, done = env.step((1.0, 0.0, 1.0))
            dones.append(done)
        assert dones == [False, False, True]

    def test_markov_reproducibility(self, cfg):
        def run(n):
            env = CellFreeEnv(cfg)
            env.reset(9)
            out = []
            for _ in range(n):
                _, r, _ = env.step((0.7, 0.5, 1.5))
                out += r.tolist()
            return out

        assert run(4) == run(4)

    def test_ap_positions_fixed_within_episode(self, cfg):
        env = CellFreeEnv(cfg)
        env.reset(11)
        aps0 = env.scenario.ap_positions.copy()
        env.step((1.0, 0.0, 1.0))
        assert np.array_equal(env.scenario.ap_positions, aps0)
        # user positions are redrawn each slot
        users1 = env.scenario.user_positions
        env.step((1.0, 0.0, 1.0))
        assert not np.array_equal(env.scenario.user_positions, users1)

    def test_out_of_bounds_clamped_with_warning(self, cfg, caplog):
        env = CellFreeEnv(cfg)
        env.reset(2)
        with caplog.at_level(logging.WARNING, logger="cfee.env"):
            _, rewards, _ = env.step([(2.0, -1.0, 9.0), (0.5, 1.0, 1.0)])
        assert "clamp" in caplog.text
        # only the offending row moves, to the nearest corner of the box
        inside = CellFreeEnv(cfg)
        inside.reset(2)
        _, expected, _ = inside.step([(1.0, 0.0, 4.0), (0.5, 1.0, 1.0)])
        assert np.array_equal(rewards, expected)
