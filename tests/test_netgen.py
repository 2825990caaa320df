import dataclasses

import numpy as np
import pytest

from cfee.alloc import Action, realize
from cfee.config import SystemConfig, noise_power
from cfee.netgen import (assign_pilots, compute_gamma, generate_scenario,
                         load_scenario, path_loss_db, pilot_groups,
                         save_scenario, wrap_distance)
from cfee.perf import evaluate


@pytest.fixture
def cfg():
    return SystemConfig()


class TestPathLoss:
    # constants calibrated at 1 km: the meter-based hand values shift by
    # +105 dB = 35 * log10(1000^3)... i.e. 35*3 per decade group
    def test_near_field_value(self, cfg):
        expected = -140.7 - 15 * np.log10(0.05) - 20 * np.log10(0.01)
        assert path_loss_db(5.0, cfg) == pytest.approx(expected)
        assert path_loss_db(5.0, cfg) == pytest.approx(-81.18455, abs=1e-4)

    def test_far_field_value(self, cfg):
        assert path_loss_db(100.0, cfg) == pytest.approx(
            -140.7 - 35 * np.log10(0.1))
        assert path_loss_db(100.0, cfg) == pytest.approx(-105.7, abs=1e-9)

    def test_continuity_at_breakpoints(self, cfg):
        eps = 1e-6
        for d in (cfg.d0, cfg.d1):
            lo = path_loss_db(d - eps, cfg)
            hi = path_loss_db(d + eps, cfg)
            assert abs(lo - hi) < 1e-4

    def test_constant_below_d0(self, cfg):
        assert path_loss_db(0.0, cfg) == path_loss_db(cfg.d0, cfg)
        assert path_loss_db(3.0, cfg) == path_loss_db(9.99, cfg)

    def test_vectorized(self, cfg):
        d = np.array([0.0, 5.0, 30.0, 100.0, 900.0])
        pl = path_loss_db(d, cfg)
        assert pl.shape == d.shape
        assert np.all(np.diff(pl[1:]) < 0)  # monotone decreasing past d0

    def test_branches_and_breakpoints_match_scalar_formula(self, cfg):
        # each slope and both breakpoints, which belong to the nearer
        # slope, against the three-slope formula one distance at a time
        def scalar(d):
            dk, d0, d1 = d / 1e3, cfg.d0 / 1e3, cfg.d1 / 1e3
            if dk <= d0:
                return -cfg.L_db - 15 * np.log10(d1) - 20 * np.log10(d0)
            if dk <= d1:
                return -cfg.L_db - 15 * np.log10(d1) - 20 * np.log10(dk)
            return -cfg.L_db - 35 * np.log10(dk)

        d = np.array([0.0, 3.0, cfg.d0, np.nextafter(cfg.d0, np.inf), 30.0,
                      cfg.d1, np.nextafter(cfg.d1, np.inf), 100.0, 900.0])
        pl = path_loss_db(d, cfg)
        for di, got in zip(d, pl):
            assert got == scalar(di), f"d = {di!r}"
            assert path_loss_db(di, cfg) == got

    def test_negative_distance_rejected(self, cfg):
        with pytest.raises(ValueError):
            path_loss_db(-1.0, cfg)


class TestWrapDistance:
    def test_identity(self):
        assert wrap_distance((0, 0), (0, 0), 1000.0) == 0.0

    def test_wraps_at_edge(self):
        assert wrap_distance((0, 0), (999, 0), 1000.0) == pytest.approx(1.0)

    def test_diagonal(self):
        assert wrap_distance((0, 0), (500, 500), 1000.0) == pytest.approx(
            500 * np.sqrt(2))

    def test_metric_properties(self):
        rng = np.random.default_rng(0)
        side = 1000.0
        pts = rng.uniform(0, side, size=(1000, 3, 2))
        for p, q, r in pts:
            dpq = wrap_distance(p, q, side)
            assert dpq == pytest.approx(wrap_distance(q, p, side))
            assert dpq <= wrap_distance(p, r, side) \
                + wrap_distance(r, q, side) + 1e-9
            assert dpq <= side / np.sqrt(2) + 1e-9


class TestAssignPilots:
    def test_orthogonal_when_enough_pilots(self):
        assert np.array_equal(assign_pilots(20, 20, 0), np.eye(20))

    def test_single_shared_pilot(self):
        assert np.array_equal(assign_pilots(3, 1, 0), np.ones((3, 3)))

    def test_pigeonhole_reuse(self):
        for seed in range(50):
            x = assign_pilots(4, 2, seed)
            assert np.array_equal(x, x.T)
            assert np.array_equal(np.diag(x), np.ones(4))
            assert np.all((x == 0) | (x == 1))
            # 4 users on 2 pilots: some pair must share
            assert np.any(x - np.eye(4) == 1)
            assert np.all((x.sum(axis=1) >= 1) & (x.sum(axis=1) <= 4))


class TestPilotGroups:
    def test_groups_match_cross_correlation(self):
        for seed in range(5):
            x = assign_pilots(7, 3, seed)
            g = pilot_groups(x)
            assert np.array_equal(g[:, None] == g[None, :], x == 1)
            # ids are 0, 1, ... in order of first use
            first = [int(g[k]) for k in range(7) if g[k] not in g[:k]]
            assert first == list(range(g.max() + 1))

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            pilot_groups(np.array([[1.0, 0.3], [0.3, 1.0]]))


class TestComputeGamma:
    def test_single_user_half(self):
        beta = np.array([[1.0]])
        g = compute_gamma(beta, np.eye(1), tau_p=1, rho_p=1.0)
        assert g[0, 0] == pytest.approx(0.5)

    def test_vanishing_pilot_power(self):
        beta = np.abs(np.random.default_rng(0).normal(size=(3, 2))) + 0.1
        g = compute_gamma(beta, np.eye(2), tau_p=10, rho_p=1e-12)
        assert np.all(g < 1e-9)

    def test_perfect_estimation_limit(self):
        beta = np.abs(np.random.default_rng(1).normal(size=(3, 2))) + 0.1
        g = compute_gamma(beta, np.eye(2), tau_p=10, rho_p=1e12)
        assert np.allclose(g, beta, rtol=1e-9)

    def test_bounded_by_beta(self, cfg):
        sc = generate_scenario(cfg, 3)
        assert np.all(sc.gamma > 0)
        assert np.all(sc.gamma < sc.beta)

    def test_copilot_interference_monotone(self):
        beta = np.array([[1.0, 0.5]])
        xcorr = np.ones((2, 2))  # shared pilot
        g1 = compute_gamma(beta, xcorr, tau_p=2, rho_p=1.0)
        beta2 = np.array([[1.0, 0.9]])
        g2 = compute_gamma(beta2, xcorr, tau_p=2, rho_p=1.0)
        assert g2[0, 0] < g1[0, 0]


class TestGenerateScenario:
    def test_deterministic(self, cfg):
        a = generate_scenario(cfg, 42)
        b = generate_scenario(cfg, 42)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(a.ap_positions, b.ap_positions)
        assert np.array_equal(a.pilot_xcorr, b.pilot_xcorr)

    def test_shapes_and_positivity(self):
        cfg = SystemConfig(M=40, K=20, N=20)
        sc = generate_scenario(cfg, 0)
        assert sc.beta.shape == (40, 20)
        assert np.all(sc.beta > 0)
        assert sc.pilot_xcorr.shape == (20, 20)

    def test_forced_placement_beta(self, placed_scenario):
        # AP on top of the user, no shadowing: beta is the near-field value
        cfg = SystemConfig(M=1, K=1, N=2, shadow_sigma_db=0.0, tau_p=1)
        sc = placed_scenario(cfg, [[100.0, 100.0]], [[100.0, 100.0]])
        expected = 10 ** (path_loss_db(0.0, cfg) / 10)
        assert sc.beta[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            SystemConfig(M=0)
        with pytest.raises(ValueError):
            SystemConfig(M=2, K=5, N=2)  # M*N <= K
        with pytest.raises(ValueError):
            SystemConfig(tau_p=300, tau_c=200)

    def test_config_is_frozen(self):
        cfg = SystemConfig(M=2, K=1, N=2, tau_p=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.M = 0
        assert cfg.M == 2

    def test_replace_checks_again(self):
        cfg = SystemConfig(M=2, K=1, N=2, tau_p=1)
        with pytest.raises(ValueError, match="M, K, N must all be >= 1"):
            dataclasses.replace(cfg, M=0)
        with pytest.raises(ValueError, match="M\\*N > K"):
            dataclasses.replace(cfg, K=4)


class TestScenarioBundle:
    def test_round_trip(self, tmp_path):
        cfg = SystemConfig(M=5, K=3, N=4, tau_p=2)
        sc = generate_scenario(cfg, 11)
        save_scenario(sc, tmp_path / "sc")
        back = load_scenario(tmp_path / "sc")
        assert back.seed == 11
        assert np.allclose(back.beta, sc.beta, rtol=1e-12)
        assert np.allclose(back.gamma, sc.gamma, rtol=1e-12)
        assert np.array_equal(back.pilot_xcorr, sc.pilot_xcorr)
        assert np.allclose(back.ap_positions, sc.ap_positions)

    def test_exact_round_trip(self, tmp_path):
        # save -> load -> evaluate reproduces every bit
        cfg = SystemConfig(M=6, K=4, N=3, tau_p=2)
        sc = generate_scenario(cfg, 12)
        save_scenario(sc, tmp_path / "sc")
        back = load_scenario(tmp_path / "sc")
        for name in ("beta", "gamma", "ap_positions", "user_positions"):
            assert np.array_equal(getattr(back, name), getattr(sc, name))
        action = Action(0.6, 1.0, 0.5)
        se = evaluate(sc, realize(action, sc, cfg), cfg).se_per_user
        se_back = evaluate(back, realize(action, back, cfg),
                           cfg).se_per_user
        assert np.array_equal(se_back, se)

    def test_meta_counts_pilot_groups(self, tmp_path):
        cfg = SystemConfig(M=5, K=6, N=4, tau_p=2)
        sc = generate_scenario(cfg, 3)
        save_scenario(sc, tmp_path / "sc")
        meta = (tmp_path / "sc" / "scenario_meta.csv").read_text()
        n_groups = len({tuple(col) for col in sc.pilot_xcorr.T})
        assert meta.splitlines()[1].split(",")[3] == str(n_groups)

    def test_significant_digits(self, tmp_path):
        cfg = SystemConfig(M=2, K=2, N=2, tau_p=2)
        sc = generate_scenario(cfg, 1)
        save_scenario(sc, tmp_path / "sc")
        line = (tmp_path / "sc" / "beta.csv").read_text().splitlines()[1]
        mantissa = line.split(",")[0].split("e")[0].replace("-", "")
        digits = len(mantissa.replace(".", ""))
        assert digits >= 12
