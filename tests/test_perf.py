import numpy as np
import pytest

from cfee.alloc import Action, realize, realize_batch
from cfee.config import SystemConfig, noise_power, rho_d, rho_p
from cfee.env import batch_rewards
from cfee.netgen import Scenario, generate_scenario, pilot_groups
from cfee.perf import (AllocationDecision, check_feasibility, closed_form_se,
                       energy_efficiency, evaluate, evaluate_batch,
                       mc_se_oracle, prelog, total_power)


def full_power_decision(sc, cfg, n_active=None):
    """Every AP with antennas active (all APs by default), uniform eta
    meeting the power budget with equality."""
    M, K = sc.beta.shape
    if n_active is None:
        n_active = np.full(M, cfg.N)
    active = np.flatnonzero(n_active)
    eta = np.zeros((M, K))
    for m in active:
        eta[m] = 1.0 / (n_active[m] * sc.gamma[m].sum())
    return AllocationDecision(active=active, n_active=n_active, eta=eta)


class TestNoisePower:
    def test_default_value(self):
        cfg = SystemConfig()
        # -174 + 73.0103 + 9 = -91.99 dBm
        assert noise_power(cfg) == pytest.approx(6.324e-13, rel=1e-3)

    def test_per_hertz_reference(self):
        cfg = SystemConfig(bandwidth_hz=1.0, noise_figure_db=0.0)
        assert noise_power(cfg) == pytest.approx(10 ** (-17.4), rel=1e-12)

    def test_normalized_snr(self):
        cfg = SystemConfig()
        assert rho_d(cfg) == pytest.approx(1.581e12, rel=1e-3)


class TestClosedFormSe:
    def test_zero_power_zero_se(self):
        cfg = SystemConfig(M=3, K=2, N=4, tau_p=2)
        sc = generate_scenario(cfg, 0)
        dec = AllocationDecision(active=np.array([0]),
                                 n_active=np.array([2, 0, 0]),
                                 eta=np.zeros((3, 2)))
        assert np.all(closed_form_se(sc, dec, cfg) == 0)

    def test_single_link_hand_formula(self):
        cfg = SystemConfig(M=1, K=1, N=2, tau_p=1,
                           ap_positions_override=np.array([[10.0, 10.0]]),
                           user_positions_override=np.array([[40.0, 10.0]]))
        sc = generate_scenario(cfg, 1)
        nm, eta_val = 2, 1.0 / (2 * sc.gamma[0, 0])
        dec = AllocationDecision(active=np.array([0]),
                                 n_active=np.array([nm]),
                                 eta=np.array([[eta_val]]))
        rd = rho_d(cfg)
        g, b = sc.gamma[0, 0], sc.beta[0, 0]
        sinr = rd * eta_val * (nm * g) ** 2 / (rd * b * nm * eta_val * g + 1)
        expected = (cfg.tau_c - cfg.tau_p) / cfg.tau_c * np.log2(1 + sinr)
        assert closed_form_se(sc, dec, cfg)[0] == pytest.approx(expected,
                                                                rel=1e-12)

    def test_rejects_bad_eta(self):
        # the closed form and the MC oracle share one check
        cfg = SystemConfig(M=2, K=2, N=2, tau_p=2)
        sc = generate_scenario(cfg, 2)
        for bad in (np.nan, np.inf, -1e-9):
            dec = full_power_decision(sc, cfg)
            dec.eta[0, 0] = bad
            with pytest.raises(ValueError, match="finite and nonnegative"):
                closed_form_se(sc, dec, cfg)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                mc_se_oracle(sc, dec, cfg, 100, seed=0)

    def test_monotone_in_own_power(self):
        cfg = SystemConfig(M=3, K=2, N=4, tau_p=2)
        sc = generate_scenario(cfg, 3)
        dec = full_power_decision(sc, cfg)
        se_full = closed_form_se(sc, dec, cfg)
        shrunk = AllocationDecision(active=dec.active,
                                    n_active=dec.n_active,
                                    eta=dec.eta.copy())
        shrunk.eta[:, 0] *= 0.5
        se_shrunk = closed_form_se(sc, shrunk, cfg)
        assert se_shrunk[0] < se_full[0]

    def test_golden_regression_frozen(self):
        # frozen 4x2 scenario: values computed once by this build after
        # MC-oracle validation (see GOLDEN_SE below)
        cfg = SystemConfig(M=4, K=2, N=3, tau_p=2)
        sc = generate_scenario(cfg, 77)
        dec = realize(Action(0.75, 1.0, 0.5), sc, cfg)
        se = closed_form_se(sc, dec, cfg)
        assert np.allclose(se, GOLDEN_SE, rtol=1e-10)


GOLDEN_SE = [0.34080387479809326, 1.9841412553683588]


class TestMcOracle:
    def test_zero_power(self):
        cfg = SystemConfig(M=2, K=2, N=2, tau_p=2)
        sc = generate_scenario(cfg, 4)
        dec = AllocationDecision(active=np.array([0]),
                                 n_active=np.array([1, 0]),
                                 eta=np.zeros((2, 2)))
        se = mc_se_oracle(sc, dec, cfg, 200, seed=0)
        assert np.all(se == 0)

    def test_agrees_with_closed_form(self):
        cfg = SystemConfig(M=2, K=2, N=2, tau_p=2)
        sc = generate_scenario(cfg, 5)
        dec = full_power_decision(sc, cfg)
        se_cf = closed_form_se(sc, dec, cfg)
        se_mc = mc_se_oracle(sc, dec, cfg, 100_000, seed=1)
        assert np.all(np.abs(se_mc - se_cf) / se_cf < 0.03)

    def test_shared_pilot_needs_xcorr_term(self):
        # with one shared pilot the coherent term dominates; dropping the
        # cross-correlation factor under-counts interference badly
        cfg = SystemConfig(M=2, K=2, N=3, tau_p=1)
        sc = generate_scenario(cfg, 25)
        assert np.all(sc.pilot_xcorr == 1)
        dec = full_power_decision(sc, cfg)
        se_cf = closed_form_se(sc, dec, cfg)
        se_mc = mc_se_oracle(sc, dec, cfg, 100_000, seed=2)
        assert np.all(np.abs(se_mc - se_cf) / se_cf < 0.03)
        # the orthogonal-pilot formula (xcorr = I) overestimates SE here
        sc_no = Scenario(ap_positions=sc.ap_positions,
                         user_positions=sc.user_positions, beta=sc.beta,
                         pilot_xcorr=np.eye(2), gamma=sc.gamma, seed=25)
        se_no = closed_form_se(sc_no, dec, cfg)
        assert np.all(se_no > se_mc * 1.1)

    def test_antenna_indices_irrelevant(self):
        cfg = SystemConfig(M=2, K=2, N=4, tau_p=2)
        sc = generate_scenario(cfg, 7)
        n_active = np.array([2, 3])
        dec = full_power_decision(sc, cfg, n_active=n_active)
        se_first = mc_se_oracle(sc, dec, cfg, 50_000, seed=3)
        mask = np.zeros((2, 4))
        mask[0, [1, 3]] = 1  # same counts, different indices
        mask[1, [0, 2, 3]] = 1
        se_perm = mc_se_oracle(sc, dec, cfg, 50_000, seed=4,
                               antenna_mask=mask)
        assert np.all(np.abs(se_perm - se_first) / se_first < 0.05)

    def test_variance_shrinks_with_realizations(self):
        cfg = SystemConfig(M=2, K=1, N=2, tau_p=1)
        sc = generate_scenario(cfg, 8)
        dec = full_power_decision(sc, cfg)
        small = [mc_se_oracle(sc, dec, cfg, 100, seed=s)[0]
                 for s in range(12)]
        big = [mc_se_oracle(sc, dec, cfg, 10_000, seed=s)[0]
               for s in range(12)]
        assert np.std(big) < np.std(small)


# --- the Monte Carlo kernel against its complex-arithmetic reference ------

def reference_mc(sc, dec, cfg, n_realizations, seed, antenna_mask=None,
                 chunk=4096):
    """Monte Carlo SE in complex arithmetic on every antenna, with the
    kernel's draws (the same calls, sizes and order per chunk), kept as
    the reference."""
    M, K, N = sc.M, sc.K, cfg.N
    group = pilot_groups(sc.pilot_xcorr)
    n_groups = group.max() + 1
    member = np.zeros((K, n_groups))
    member[np.arange(K), group] = 1.0
    if antenna_mask is None:
        antenna_mask = (np.arange(N)[None, :] < dec.n_active[:, None])
    mask = antenna_mask.astype(float)
    rd, rp = rho_d(cfg), rho_p(cfg)
    tp = cfg.tau_p * rp
    c = np.sqrt(tp) * sc.beta / (tp * (sc.beta @ sc.pilot_xcorr) + 1.0)
    sqrt_eta = np.sqrt(dec.eta)
    sqrt_beta = np.sqrt(sc.beta)

    rng = np.random.default_rng(seed)
    sum_a = np.zeros(K, dtype=complex)
    sum_a2 = np.zeros(K)
    sum_b2 = np.zeros((K, K))
    done = 0
    while done < n_realizations:
        R = min(chunk, n_realizations - done)
        done += R
        h = (rng.standard_normal((R, M, N, K))
             + 1j * rng.standard_normal((R, M, N, K))) / np.sqrt(2.0)
        gA = sqrt_beta[None, :, None, :] * h * mask[None, :, :, None]
        w = (rng.standard_normal((R, M, N, n_groups))
             + 1j * rng.standard_normal((R, M, N, n_groups))) / np.sqrt(2.0)
        w *= mask[None, :, :, None]
        ysum = np.einsum("rmnk,kp->rmnp", gA, member)
        ytilde = (np.sqrt(tp) * ysum + w)[:, :, :, group]
        ghat = c[None, :, None, :] * ytilde
        u = np.einsum("rmnk,rmnj->rmkj", gA, ghat.conj())
        b = np.einsum("rmkj,mj->rkj", u, sqrt_eta)
        a = np.einsum("rkk->rk", b)
        sum_a += a.sum(axis=0)
        sum_a2 += (np.abs(a) ** 2).sum(axis=0)
        sum_b2 += (np.abs(b) ** 2).sum(axis=0)

    n = float(n_realizations)
    ea = sum_a / n
    ds = rd * np.abs(ea) ** 2
    bu = rd * np.maximum(sum_a2 / n - np.abs(ea) ** 2, 0.0)
    ui = rd * sum_b2 / n
    np.fill_diagonal(ui, 0.0)
    sinr = ds / (bu + ui.sum(axis=1) + 1.0)
    return prelog(cfg) * np.log2(1.0 + sinr)


class TestMcKernel:
    PERMUTED = np.array([[0, 1, 0, 1], [1, 0, 1, 1], [0, 0, 1, 0]])

    # (system, antenna counts, antenna mask, realizations); every case
    # draws with the default chunk, on both sides
    @pytest.mark.parametrize("cfg, n_active, mask, n_real", [
        (SystemConfig(M=3, K=3, N=4, tau_p=3), [4, 2, 3], None, 3000),
        (SystemConfig(M=3, K=3, N=3, tau_p=1), [3, 1, 2], None, 3000),
        (SystemConfig(M=3, K=3, N=4, tau_p=2), [2, 3, 1], PERMUTED, 3000),
        (SystemConfig(M=3, K=2, N=3, tau_p=1), [2, 0, 3], None, 3000),
        (SystemConfig(M=2, K=3, N=2, tau_p=2), [2, 1], None, 10_123)],
        ids=["orthogonal_pilots", "one_shared_pilot", "permuted_mask",
             "ap_without_antennas", "partial_last_chunk"])
    def test_matches_complex_reference(self, cfg, n_active, mask, n_real):
        sc = generate_scenario(cfg, 41)
        dec = full_power_decision(sc, cfg, np.array(n_active))
        se = mc_se_oracle(sc, dec, cfg, n_real, seed=9, antenna_mask=mask)
        ref = reference_mc(sc, dec, cfg, n_real, seed=9, antenna_mask=mask)
        assert np.all(ref > 0)
        assert np.all(np.abs(se - ref) <= 1e-12 * ref)


class TestTotalPower:
    def setup_method(self):
        self.cfg = SystemConfig(M=2, K=2, N=20, tau_p=2)
        beta = np.array([[1e-8, 1e-8], [1e-9, 1e-9]])
        self.sc = Scenario(ap_positions=np.zeros((2, 2)),
                           user_positions=np.zeros((2, 2)), beta=beta,
                           pilot_xcorr=np.eye(2), gamma=beta / 2, seed=0)

    def one_ap_decision(self, nm):
        eta = np.zeros((2, 2))
        eta[0] = 1.0 / (nm * self.sc.gamma[0].sum())
        return AllocationDecision(active=np.array([0]),
                                  n_active=np.array([nm, 0]), eta=eta)

    def test_amplifier_term(self):
        # full power, alpha = 0.4, rho_d * N0 = 1 W -> 2.5 W amplifier draw
        dec = self.one_ap_decision(4)
        p = total_power(dec, 0.0, self.sc, self.cfg)
        circuit_fixed = 4 * 0.2 + 0.825
        assert p == pytest.approx(2.5 + circuit_fixed, rel=1e-9)

    def test_zero_traffic_hand_value(self):
        dec = self.one_ap_decision(20)
        p = total_power(dec, 0.0, self.sc, self.cfg)
        assert p == pytest.approx(2.5 + 20 * 0.2 + 0.825, rel=1e-9)

    def test_traffic_term(self):
        dec = self.one_ap_decision(20)
        se_sum = 10.0  # 20 MHz * 10 b/s/Hz = 0.2 Gbit/s -> 0.05 W at 0.25
        p0 = total_power(dec, 0.0, self.sc, self.cfg)
        p1 = total_power(dec, se_sum, self.sc, self.cfg)
        assert p1 - p0 == pytest.approx(0.2 * 0.25, rel=1e-9)

    def test_additive_over_disjoint_sets(self):
        cfg = SystemConfig(M=4, K=2, N=6, tau_p=2)
        sc = generate_scenario(cfg, 9)
        dec = full_power_decision(sc, cfg)
        total = total_power(dec, 3.0, sc, cfg)
        parts = 0.0
        for ms in ([0, 1], [2, 3]):
            eta = np.zeros_like(dec.eta)
            eta[ms] = dec.eta[ms]
            n = np.zeros(4, dtype=int)
            n[ms] = dec.n_active[ms]
            part = AllocationDecision(active=np.array(ms), n_active=n,
                                      eta=eta)
            parts += total_power(part, 3.0, sc, cfg)
        assert parts == pytest.approx(total, rel=1e-12)

    def test_idle_backhaul_configurable(self):
        cfg = SystemConfig(M=2, K=2, N=20, tau_p=2, idle_backhaul_power=0.5)
        dec = self.one_ap_decision(20)
        p_off = total_power(dec, 0.0, self.sc, self.cfg)
        p_idle = total_power(dec, 0.0, self.sc, cfg)
        assert p_idle - p_off == pytest.approx(0.5)

    def test_rejects_negative_traffic(self):
        with pytest.raises(ValueError):
            total_power(self.one_ap_decision(2), -1.0, self.sc, self.cfg)


class TestEnergyEfficiency:
    def test_zero_se(self):
        assert energy_efficiency(0.0, 5.0, SystemConfig()) == 0.0

    def test_hand_value(self):
        # 20 MHz * 10 b/s/Hz / 20 W = 10 Mbit/J
        assert energy_efficiency(10.0, 20.0, SystemConfig()) == pytest.approx(
            1e7)

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            energy_efficiency(1.0, 0.0, SystemConfig())

    def test_report_identity(self):
        cfg = SystemConfig(M=3, K=2, N=4, tau_p=2)
        sc = generate_scenario(cfg, 10)
        rep = evaluate(sc, full_power_decision(sc, cfg), cfg)
        assert rep.ee_bits_per_joule == pytest.approx(
            cfg.bandwidth_hz * rep.se_sum / rep.p_total_watts, rel=1e-15)


class TestFeasibility:
    def test_fractional_allocation_zero_slack(self):
        cfg = SystemConfig(M=4, K=3, N=5, tau_p=3)
        sc = generate_scenario(cfg, 11)
        dec = realize(Action(0.5, 1.0, 1.5), sc, cfg)
        v = check_feasibility(sc, dec, cfg)
        assert np.all(np.abs(v.power_slack[dec.active])
                      * dec.n_active[dec.active] <= 1e-12)
        assert v.power_ok.all() and v.antenna_ok

    def test_overdrive_violates(self):
        cfg = SystemConfig(M=4, K=3, N=5, tau_p=3)
        sc = generate_scenario(cfg, 12)
        dec = realize(Action(1.0, 0.0, 1.0), sc, cfg)
        dec.eta *= 1.01
        v = check_feasibility(sc, dec, cfg)
        assert not v.power_ok[dec.active].all()
        assert not v.feasible

    def test_qos_boundary_feasible(self):
        cfg = SystemConfig(M=3, K=2, N=4, tau_p=2)
        sc = generate_scenario(cfg, 13)
        dec = realize(Action(1.0, 0.0, 1.0), sc, cfg)
        se = closed_form_se(sc, dec, cfg)
        cfg_b = SystemConfig(M=3, K=2, N=4, tau_p=2,
                             se_min=float(se.min()))
        v = check_feasibility(sc, dec, cfg_b)
        assert v.qos_ok.all()


# --- the per-decision reference and the batched evaluation ----------------

def reference_se(sc, n_active, eta, cfg):
    """Closed-form SE of one decision in the unbatched two-dimensional
    form, kept as the reference."""
    n = n_active.astype(float)
    rd = rho_d(cfg)
    sqrt_eta = np.sqrt(eta)
    num = rd * (sqrt_eta * n[:, None] * sc.gamma).sum(axis=0) ** 2
    C = n[:, None] * sqrt_eta * sc.gamma / sc.beta
    coh = sc.pilot_xcorr * (C.T @ sc.beta) ** 2
    np.fill_diagonal(coh, 0.0)
    t_coh = rd * coh.sum(axis=0)
    load = (eta * sc.gamma).sum(axis=1)
    t_nc = rd * (sc.beta * (n * load)[:, None]).sum(axis=0)
    return prelog(cfg) * np.log2(1.0 + num / (t_coh + t_nc + 1.0))


def reference_power(sc, n_active, eta, se_sum, cfg):
    load = (eta * sc.gamma).sum(axis=1)
    n = n_active.astype(float)
    amp = cfg.p_down_watts / cfg.alpha_amp * float((n * load).sum())
    circuit = cfg.p_tc_watts * float(n.sum())
    n_on = int((n_active > 0).sum())
    backhaul = n_on * (cfg.p_fix_watts + cfg.bandwidth_hz * se_sum / 1e9
                       * cfg.p_bt_watts_per_gbps)
    idle = (len(n_active) - n_on) * cfg.idle_backhaul_power
    return amp + circuit + backhaul + idle


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestEvaluateBatch:
    @pytest.mark.parametrize("cfg", [
        SystemConfig(M=10, K=5, N=8, tau_p=5),
        SystemConfig(M=40, K=20, N=20, tau_p=20),
        SystemConfig(M=10, K=6, N=8, tau_p=2),
        SystemConfig(M=40, K=20, N=20, tau_p=7),
        SystemConfig(M=4, K=3, N=2, tau_p=1, idle_backhaul_power=0.3)],
        ids=["desk", "full", "shared_pilots", "full_shared_pilots",
             "one_pilot_idle_power"])
    def test_rows_bit_equal_reference(self, cfg):
        # one random zeta per action: some rows are off for some actions,
        # and with shared pilots the coherent term's matmul runs over them
        rng = np.random.default_rng(cfg.M + cfg.tau_p)
        for seed in range(2):
            sc = generate_scenario(cfg, seed)
            B = 40
            actions = np.column_stack([
                rng.uniform(0.01, 1, B), rng.uniform(0, 4, B),
                rng.choice([0.0, 1.0, 2.0, rng.uniform(0, 4)], B)])
            rows, n_active, eta_rows = realize_batch(actions, sc, cfg)
            assert np.any(n_active[:, rows] == 0)
            se_b, p_b, ee_b, shortfall_b = evaluate_batch(
                sc, rows, n_active, eta_rows, cfg)
            rewards = batch_rewards(ee_b, shortfall_b, 20.0)
            eta = np.zeros((B, cfg.M, cfg.K))
            eta[:, rows] = eta_rows
            for b in range(B):
                se = reference_se(sc, n_active[b], eta[b], cfg)
                se_sum = float(se.sum())
                p = reference_power(sc, n_active[b], eta[b], se_sum, cfg)
                assert bits(se_b[b]) == bits(se)
                assert bits(p_b[b]) == bits(p)
                assert bits(ee_b[b]) == bits(cfg.bandwidth_hz * se_sum / p)
                one = evaluate(sc, realize(Action(*actions[b]), sc, cfg),
                               cfg)
                assert bits(one.se_per_user) == bits(se)
                assert bits(one.p_total_watts) == bits(p)
                assert bits(rewards[b]) == bits(batch_rewards(
                    one.ee_bits_per_joule, one.qos_shortfall.sum(), 20.0))
                assert bits(shortfall_b[b]) == bits(one.qos_shortfall.sum())

    def test_closed_form_matches_reference_on_hand_decisions(self):
        cfg = SystemConfig(M=3, K=3, N=4, tau_p=1)
        sc = generate_scenario(cfg, 30)
        dec = full_power_decision(sc, cfg, n_active=np.array([4, 1, 3]))
        assert bits(closed_form_se(sc, dec, cfg)) == bits(
            reference_se(sc, dec.n_active, dec.eta, cfg))

    def test_rejects_bad_eta_in_any_row(self):
        cfg = SystemConfig(M=3, K=2, N=4, tau_p=2)
        sc = generate_scenario(cfg, 31)
        rows, n_active, eta = realize_batch(
            np.array([[1.0, 0.0, 1.0]] * 3), sc, cfg)
        for bad in (np.nan, np.inf, -1e-9):
            broken = eta.copy()
            broken[1, 0, 1] = bad
            with pytest.raises(ValueError, match="finite and nonnegative"):
                evaluate_batch(sc, rows, n_active, broken, cfg)
