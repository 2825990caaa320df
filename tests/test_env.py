import logging

import numpy as np
import pytest

from cfee.alloc import Action, realize
from cfee.config import SystemConfig
from cfee.env import (CellFreeEnv, FeatureNormalizer, PerfReport,
                      reward_from_report)
from cfee.perf import evaluate


@pytest.fixture
def cfg():
    return SystemConfig(M=4, K=3, N=5, tau_p=3)


def make_report(ee_mbits, shortfalls):
    return PerfReport(se_per_user=np.zeros(len(shortfalls)), se_sum=0.0,
                      p_total_watts=1.0, ee_bits_per_joule=ee_mbits * 1e6,
                      qos_shortfall=np.array(shortfalls))


class TestReward:
    def test_no_violation(self):
        assert reward_from_report(make_report(12.7, [0, 0]), 20.0) == \
            pytest.approx(12.7)

    def test_hand_value(self):
        # EE 10 Mbit/J, one user 0.5 below the floor: 10 - 20*0.5 = 0
        assert reward_from_report(make_report(10.0, [0.5, 0.0]), 20.0) == \
            pytest.approx(0.0)

    def test_boundary_no_penalty(self):
        assert reward_from_report(make_report(5.0, [0.0, 0.0, 0.0]),
                                  20.0) == pytest.approx(5.0)

    def test_penalty_monotone(self):
        r1 = reward_from_report(make_report(8.0, [0.1]), 20.0)
        r2 = reward_from_report(make_report(8.0, [0.2]), 20.0)
        assert r2 < r1


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
        _, reward, _ = env.step(action.as_array())
        rep = evaluate(sc, realize(action, sc, cfg), cfg)
        expected = rep.ee_mbits_per_joule - 20.0 * rep.qos_shortfall.sum()
        assert reward == pytest.approx(expected, rel=1e-15)

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
                out.append(r)
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
            _, reward, _ = env.step((2.0, -1.0, 9.0))
        assert "clamp" in caplog.text
        assert np.isfinite(reward)

    def test_raw_feature_mode(self, cfg):
        env = CellFreeEnv(cfg, feature_mode="raw")
        feats = env.reset(3)
        assert np.allclose(feats, env.scenario.beta.ravel())
