import numpy as np
import pytest

from cfee.alloc import (Action, allocate_antennas, allocate_power, ap_scores,
                        realize, realize_batch, select_aps)
from cfee.config import SystemConfig
from cfee.netgen import Scenario, generate_scenario

DESK = SystemConfig(M=10, K=5, N=8, tau_p=5)
FULL = SystemConfig(M=40, K=20, N=20, tau_p=20)
SHARED = SystemConfig(M=10, K=6, N=8, tau_p=2)   # users share pilots
ONE_AP = SystemConfig(M=1, K=3, N=4, tau_p=3)


def make_scenario(beta, gamma, seed=0):
    M, K = beta.shape
    return Scenario(ap_positions=np.zeros((M, 2)),
                    user_positions=np.zeros((K, 2)),
                    beta=np.asarray(beta, dtype=float),
                    pilot_xcorr=np.eye(K),
                    gamma=np.asarray(gamma, dtype=float), seed=seed)


class TestApScores:
    def test_constant_field(self):
        beta = np.full((3, 4), 2.5)
        assert np.allclose(ap_scores(beta), 2.5)

    def test_arithmetic_mean(self):
        assert ap_scores(np.array([[1.0, 3.0]]))[0] == 2.0

    def test_user_permutation_invariant(self):
        rng = np.random.default_rng(0)
        beta = rng.uniform(0.1, 1, size=(5, 6))
        perm = rng.permutation(6)
        assert np.allclose(ap_scores(beta), ap_scores(beta[:, perm]))


class TestSelectAps:
    def test_all(self):
        s = np.array([3.0, 1.0, 2.0])
        assert np.array_equal(select_aps(s, 1.0), [0, 1, 2])

    def test_half_of_40(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(size=40)
        active = select_aps(s, 0.5)
        assert len(active) == 20
        assert set(active) == set(np.argsort(-s)[:20])

    def test_minimum_one(self):
        s = np.random.default_rng(2).uniform(size=40)
        active = select_aps(s, 0.001)
        assert len(active) == 1
        assert active[0] == np.argmax(s)

    def test_tie_break_lower_index(self):
        s = np.array([1.0, 1.0, 1.0, 1.0])
        assert np.array_equal(select_aps(s, 0.5), [0, 1])


class TestAllocateAntennas:
    def test_kappa_zero_uniform(self):
        s = np.array([4.0, 1.0, 2.0])
        n = allocate_antennas(s, np.array([0, 1, 2]), 0.0, 8)
        assert np.array_equal(n, [8, 8, 8])

    def test_best_gets_all(self):
        s = np.array([4.0, 1.0])
        n = allocate_antennas(s, np.array([0, 1]), 3.0, 16)
        assert n[0] == 16

    def test_hand_value(self):
        # I = (4, 1), kappa = 1, N = 20: w = (1, 0.25) -> (20, 5)
        s = np.array([4.0, 1.0])
        n = allocate_antennas(s, np.array([0, 1]), 1.0, 20)
        assert np.array_equal(n, [20, 5])

    def test_inactive_zero(self):
        s = np.array([4.0, 1.0, 2.0])
        n = allocate_antennas(s, np.array([0]), 1.0, 8)
        assert np.array_equal(n, [8, 0, 0])

    def test_large_kappa_winner_take_most(self):
        s = np.array([5.0, 4.0, 3.0, 2.0])
        n = allocate_antennas(s, np.arange(4), 50.0, 12)
        assert n[0] == 12
        assert np.array_equal(n[1:], [1, 1, 1])

    def test_monotone_in_score(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = rng.uniform(0.1, 10, size=6)
            kappa = rng.uniform(0, 4)
            n = allocate_antennas(s, np.arange(6), kappa, 9)
            order = np.argsort(-s)
            assert np.all(np.diff(n[order]) <= 0)

    def test_scale_invariance(self):
        s = np.array([3.0, 1.5, 0.5])
        a = allocate_antennas(s, np.arange(3), 2.0, 10)
        b = allocate_antennas(s * 7.3, np.arange(3), 2.0, 10)
        assert np.array_equal(a, b)
        assert np.array_equal(select_aps(s, 0.5), select_aps(s * 7.3, 0.5))


class TestAllocatePower:
    def test_nu_one_uniform_across_users(self):
        gamma = np.array([[0.2, 0.5, 0.3]])
        eta = allocate_power(gamma, np.array([4]), np.array([0]), 1.0)
        assert np.allclose(eta[0], 1.0 / (4 * gamma.sum()))

    def test_nu_zero_channel_inversion(self):
        gamma = np.array([[0.2, 0.5]])
        eta = allocate_power(gamma, np.array([3]), np.array([0]), 0.0)
        expected = 1.0 / (gamma[0] * 3 * 2)
        assert np.allclose(eta[0], expected)

    def test_budget_equality(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            K = int(rng.integers(1, 8))
            gamma = rng.uniform(1e-12, 1e-6, size=(1, K))
            nu = rng.uniform(0, 4)
            nm = int(rng.integers(1, 21))
            eta = allocate_power(gamma, np.array([nm]), np.array([0]), nu)
            load = float((eta[0] * gamma[0]).sum())
            assert abs(load - 1 / nm) * nm <= 1e-12

    def test_inactive_rows_zero(self):
        gamma = np.full((3, 2), 0.5)
        eta = allocate_power(gamma, np.array([2, 0, 0]), np.array([0]), 1.0)
        assert np.all(eta[1:] == 0)


class TestRealize:
    def setup_method(self):
        self.cfg = SystemConfig(M=4, K=2, N=8, tau_p=2)
        beta = np.array([[4.0, 4.0], [1.0, 1.0], [2.0, 2.0], [8.0, 8.0]])
        self.sc = make_scenario(beta, beta / 2.0)

    def test_all_on_defaults(self):
        dec = realize(Action(1.0, 0.0, 1.0), self.sc, self.cfg)
        assert len(dec.active) == 4
        assert np.all(dec.n_active == 8)
        for m in range(4):
            assert np.allclose(dec.eta[m], dec.eta[m][0])
        dec.validate(self.sc.gamma, self.cfg.N)

    def test_half_picks_top_scoring(self):
        dec = realize(Action(0.5, 0.0, 1.0), self.sc, self.cfg)
        assert np.array_equal(dec.active, [0, 3])  # scores 4 and 8

    def test_golden_decision_table(self):
        # scores I = (4, 1, 2, 8); zeta=0.5 -> APs {3, 0}; kappa=1 ->
        # w = (0.5, 1) -> N_m = (floor(1+7*0.5), 8) = (4, 8); nu=1 ->
        # eta = 1/(N_m * sum_j gamma_mj) rows (gamma rows (2,2) and (4,4))
        dec = realize(Action(0.5, 1.0, 1.0), self.sc, self.cfg)
        assert np.array_equal(dec.active, [0, 3])
        assert np.array_equal(dec.n_active, [4, 0, 0, 8])
        assert np.allclose(dec.eta[0], 1.0 / (4 * 4))
        assert np.allclose(dec.eta[3], 1.0 / (8 * 8))
        assert np.all(dec.eta[1:3] == 0)
        dec.validate(self.sc.gamma, self.cfg.N)

    def test_realized_decisions_always_feasible(self):
        rng = np.random.default_rng(5)
        from cfee.netgen import generate_scenario
        cfg = SystemConfig(M=6, K=3, N=5, tau_p=2)
        for seed in range(10):
            sc = generate_scenario(cfg, seed)
            act = Action(float(rng.uniform(0.05, 1)),
                         float(rng.uniform(0, 4)), float(rng.uniform(0, 4)))
            dec = realize(act, sc, cfg)
            dec.validate(sc.gamma, cfg.N)


# --- the per-action reference and the batched core ------------------------

def loop_allocate_power(gamma, n_active, active, nu):
    """The per-AP loop form of the power rule, kept as the reference."""
    eta = np.zeros_like(gamma)
    for m in active:
        g = gamma[m]
        r = g / g.max()
        eta[m] = r ** (nu - 1.0) / (g.max() * (r ** nu).sum() * n_active[m])
    return eta


def reference_realize(zeta, kappa, nu, sc, N):
    """One action's allocation by the rules written out AP by AP."""
    scores = sc.beta.mean(axis=1)
    M = len(scores)
    n_on = max(1, int(np.floor(zeta * M + 0.5)))
    active = np.sort(np.argsort(-scores, kind="stable")[:n_on])
    log_s = np.log(scores[active])
    w = np.exp(kappa * (log_s - log_s.max()))
    n_active = np.zeros(M, dtype=int)
    n_active[active] = np.minimum(N, np.floor(1.0 + (N - 1) * w).astype(int))
    return active, n_active, loop_allocate_power(sc.gamma, n_active, active,
                                                 nu)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_actions(rng, B):
    return np.column_stack([rng.uniform(0.01, 1.0, B),
                            rng.uniform(0.0, 4.0, B),
                            rng.uniform(0.0, 4.0, B)])


def scattered(rows, eta_rows, M):
    """Powers on `rows` (B, R, K) as full (B, M, K) matrices."""
    eta = np.zeros((eta_rows.shape[0], M, eta_rows.shape[2]))
    eta[:, rows] = eta_rows
    return eta


def assert_rows_match_reference(actions, sc, cfg):
    rows, n_active, eta_rows = realize_batch(actions, sc, cfg)
    assert n_active.shape == (len(actions), sc.M)
    assert eta_rows.shape == (len(actions), len(rows), sc.K)
    eta = scattered(rows, eta_rows, sc.M)
    switched_on = np.zeros(sc.M, dtype=bool)
    for b, (zeta, kappa, nu) in enumerate(actions):
        ref_active, ref_n, ref_eta = reference_realize(
            float(zeta), float(kappa), float(nu), sc, cfg.N)
        switched_on[ref_active] = True
        assert np.array_equal(np.flatnonzero(n_active[b]), ref_active)
        assert np.array_equal(n_active[b], ref_n)
        assert same_bits(eta[b], ref_eta), (b, zeta, kappa, nu)
        dec = realize(Action(float(zeta), float(kappa), float(nu)), sc, cfg)
        assert np.array_equal(dec.active, ref_active)
        assert np.array_equal(dec.n_active, ref_n)
        assert same_bits(dec.eta, ref_eta)
        # the one-action path against the batch's row, directly
        assert np.array_equal(dec.active, np.flatnonzero(n_active[b]))
        assert np.array_equal(dec.n_active, n_active[b])
        assert np.array_equal(dec.eta, eta[b])
    # the rows are the APs some action switches on, in AP order, and an
    # action's powers are exactly 0 on the rows it has off
    assert np.array_equal(rows, np.flatnonzero(switched_on))
    off = n_active[:, rows] == 0
    assert same_bits(eta_rows[off], np.zeros((off.sum(), sc.K)))
    assert np.all(eta_rows[~off] > 0)


class TestRealizeBatch:
    @pytest.mark.parametrize("cfg", [DESK, FULL, SHARED, ONE_AP],
                             ids=["desk", "full", "shared_pilots", "one_ap"])
    def test_random_rows_bit_equal_reference(self, cfg):
        rng = np.random.default_rng(cfg.M * 100 + cfg.tau_p)
        for seed in range(3):
            sc = generate_scenario(cfg, seed)
            assert_rows_match_reference(random_actions(rng, 60), sc, cfg)

    @pytest.mark.parametrize("cfg", [DESK, FULL, SHARED, ONE_AP],
                             ids=["desk", "full", "shared_pilots", "one_ap"])
    def test_edge_coefficients_bit_equal_reference(self, cfg):
        # repeated nu values, nu in {0, 1}, kappa = 0, and zeta M + 0.5
        # landing exactly on an integer (round-half-up boundaries)
        sc = generate_scenario(cfg, 7)
        M = cfg.M
        zetas = [(j + 0.5) / M for j in range(M)] + [1.0 / M, 1.0]
        actions = np.array([(z, k, n) for z in zetas
                            for k in (0.0, 1.5) for n in (0.0, 1.0, 2.5)]
                           + [(0.5, 2.0, 0.7)] * 4)
        assert np.floor(actions[0, 0] * M + 0.5) == 1.0
        assert all(z * M + 0.5 == j + 1 for j, z in enumerate(zetas[:M]))
        assert_rows_match_reference(actions, sc, cfg)

    def test_tied_ap_scores(self):
        cfg = SystemConfig(M=6, K=3, N=5, tau_p=3)
        rng = np.random.default_rng(11)
        row = rng.uniform(1e-9, 1e-7, size=3)
        beta = np.vstack([row, row * 2, row, row * 2, row, row / 3])
        sc = make_scenario(beta, beta / 3)
        actions = np.array([(z, k, n) for z in (1 / 6, 2 / 6, 0.5, 4 / 6, 1.0)
                            for k in (0.0, 3.0) for n in (0.5, 1.0)])
        assert_rows_match_reference(actions, sc, cfg)
        rows, n_active, _ = realize_batch(np.array([[2 / 6, 1.0, 1.0]]), sc,
                                          cfg)
        assert np.array_equal(rows, [1, 3])
        assert np.array_equal(np.flatnonzero(n_active[0]), [1, 3])

    def test_allocate_power_bit_equal_loop(self):
        rng = np.random.default_rng(12)
        for cfg in (DESK, FULL):
            sc = generate_scenario(cfg, 3)
            for _ in range(20):
                active = np.sort(rng.choice(cfg.M, rng.integers(1, cfg.M + 1),
                                            replace=False))
                n_active = np.zeros(cfg.M, dtype=int)
                n_active[active] = rng.integers(1, cfg.N + 1, len(active))
                nu = float(rng.choice([0.0, 1.0, rng.uniform(0, 4)]))
                assert same_bits(
                    allocate_power(sc.gamma, n_active, active, nu),
                    loop_allocate_power(sc.gamma, n_active, active, nu))

    def test_single_action_shape(self):
        sc = generate_scenario(DESK, 1)
        rows, n_active, eta = realize_batch([0.5, 1.0, 2.0], sc, DESK)
        assert n_active.shape == (1, 10) and eta.shape == (1, 5, 5)
        assert scattered(rows, eta, DESK.M).shape == (1, 10, 5)


class TestRealizeErrors:
    """Each ValueError of the one-action path, raised for a batch holding
    the offending action among valid ones."""

    GOOD = (0.5, 1.0, 1.0)

    def errors(self, action, sc, cfg):
        msgs = []
        with pytest.raises(ValueError) as one:
            realize(Action(*action), sc, cfg)
        msgs.append(str(one.value))
        with pytest.raises(ValueError) as batch:
            realize_batch(np.array([self.GOOD, action, self.GOOD]), sc, cfg)
        msgs.append(str(batch.value))
        return msgs

    @pytest.mark.parametrize("action, msg", [
        ((0.0, 1.0, 1.0), "zeta"), ((1.2, 1.0, 1.0), "zeta"),
        ((float("nan"), 1.0, 1.0), "zeta"), ((0.5, -0.1, 1.0), "kappa"),
        ((0.5, 1.0, -0.5), "nu")])
    def test_bad_coefficient(self, action, msg):
        sc = generate_scenario(DESK, 0)
        one, batch = self.errors(action, sc, DESK)
        assert one == batch == self.MESSAGES[msg]

    MESSAGES = {"zeta": "zeta must lie in (0, 1]",
                "kappa": "kappa must be >= 0", "nu": "nu must be >= 0"}

    def test_nonpositive_beta(self):
        for bad in (0.0, -1e-12, float("nan")):
            sc = generate_scenario(DESK, 0)
            sc.beta[3, 2] = bad
            one, batch = self.errors(self.GOOD, sc, DESK)
            assert one == batch == "beta must be positive"

    def test_degenerate_gamma_only_on_active_ap(self):
        sc = generate_scenario(DESK, 0)
        weakest = int(np.argmin(ap_scores(sc.beta)))
        sc.gamma[weakest] = 0.0
        # the weakest AP is off at zeta = 0.5: no error on either path
        realize(Action(*self.GOOD), sc, DESK)
        realize_batch(np.array([self.GOOD] * 2), sc, DESK)
        one, batch = self.errors((1.0, 1.0, 1.0), sc, DESK)
        assert one == batch == f"degenerate gamma row at AP {weakest}"
        # with several degenerate rows on, the lowest AP index is named
        strongest = int(np.argmax(ap_scores(sc.beta)))
        sc.gamma[strongest] = -1.0
        one, batch = self.errors((1.0, 1.0, 1.0), sc, DESK)
        assert one == batch == \
            f"degenerate gamma row at AP {min(weakest, strongest)}"
        one, batch = self.errors(self.GOOD, sc, DESK)
        assert one == batch == f"degenerate gamma row at AP {strongest}"
