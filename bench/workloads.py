"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (timed, and
repeated by the runner), hands out rounds of identical operations from
``round_ops`` and checks every operation's output against the reference
evaluator in ``reference.py`` or a property the method must have.  The
runner times only the operation itself; checks run outside the timing.

An operation is a ``(call, check)`` pair: ``call()`` runs the program and
``check(result)`` returns the operation's units of work and a list of
error strings.
"""
from __future__ import annotations

import math
import shutil

import numpy as np

import reference

PENALTY = 20.0          # the program's default reward penalty
REL_TOL = 1e-9          # program vs reference, same formulas in float64


def close(a, b, rel=REL_TOL):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def decision_errors(action, dec, sc, cfg, what, rules=True):
    """A (zeta, kappa, nu) decision has max(1, round-half-up(zeta M))
    active APs, 1..N antennas on each, and every active AP spends its whole
    power budget, sum_k eta_mk gamma_mk = 1 / N_m.  With `rules`, it also
    matches the reference allocation rules exactly."""
    M = sc.M
    errs = []
    if rules:
        n_ref, eta_ref = reference.allocation(
            sc.beta, sc.gamma, action.zeta, action.kappa, action.nu, cfg.N)
        if not np.array_equal(dec.n_active, n_ref):
            errs.append(f"{what}: antenna counts differ from the reference")
        elif not np.allclose(dec.eta, eta_ref, rtol=REL_TOL, atol=0.0):
            errs.append(f"{what}: powers differ from the reference rules")
    n_on_expected = max(1, int(math.floor(action.zeta * M + 0.5)))
    on = dec.n_active > 0
    if int(on.sum()) != n_on_expected or len(dec.active) != n_on_expected:
        errs.append(f"{what}: {int(on.sum())} active APs, expected "
                    f"{n_on_expected} for zeta={action.zeta:.6g}")
    if np.any(dec.n_active > cfg.N) or np.any(dec.n_active < 0):
        errs.append(f"{what}: antenna count outside 0..{cfg.N}")
    if not np.array_equal(np.flatnonzero(on), np.sort(dec.active)):
        errs.append(f"{what}: active list disagrees with antenna counts")
    if np.any(dec.eta[~on] != 0) or np.any(dec.eta < 0):
        errs.append(f"{what}: power on an inactive AP or negative power")
    load = (dec.eta[on] * sc.gamma[on]).sum(axis=1)
    budget = 1.0 / dec.n_active[on]
    worst = float(np.max(np.abs(load - budget) / budget)) if on.any() else 0
    if not worst <= 1e-9:
        errs.append(f"{what}: per-AP power budget off by {worst:.3g}")
    return errs


def reference_errors(ref, report, what):
    errs = []
    if not close(ref.ee_mbits_per_joule, report.ee_mbits_per_joule):
        errs.append(f"{what}: EE {report.ee_mbits_per_joule!r} != reference "
                    f"{ref.ee_mbits_per_joule!r}")
    if not np.allclose(ref.se_per_user, report.se_per_user, rtol=REL_TOL,
                       atol=REL_TOL):
        errs.append(f"{what}: per-user SE differs from the reference")
    return errs


def gamma_errors(sc, cfg, what):
    gamma = reference.mmse_gamma(sc.beta, sc.pilot_xcorr, cfg)
    if not np.allclose(gamma, sc.gamma, rtol=1e-12, atol=0.0):
        return [f"{what}: gamma differs from the MMSE formula"]
    return []


class TrainDesk:
    """harness.train_scheme("proposed") at desk scale with default PpoHyper,
    STEPS environment steps per operation."""

    name = "train_desk"
    unit = "train steps"
    STEPS = 512
    N_CHECK_SCENARIOS = 16

    def setup(self, m, seed, out_root):
        self.m, self.seed = m, seed
        self.cfg = m.config.SystemConfig(M=10, K=5, N=8, tau_p=5)
        self.hyper = m.ppo.PpoHyper()
        self.scenarios = m.harness.held_out_scenarios(
            self.cfg, self.N_CHECK_SCENARIOS, seed)
        self.out_root = out_root / "train_desk" / f"seed{seed}"

    def _train(self, r, out_dir):
        return self.m.harness.train_scheme(
            self.cfg, "proposed", self.hyper,
            master_seed=self.seed * 1000 + r, out_dir=out_dir,
            total_steps=self.STEPS)

    def round_ops(self, r):
        out_dir = self.out_root / f"round{r}"
        return [(lambda: self._train(r, out_dir),
                 lambda ckpt: (self.STEPS, self._check(r, out_dir, ckpt)))]

    def _check(self, r, out_dir, ckpt):
        m, cfg = self.m, self.cfg
        what = f"train round {r}"
        errs = []
        lines = (out_dir / "train_proposed.csv").read_text().splitlines()
        horizon = self.hyper.rollout_horizon
        n_updates = -(-self.STEPS // horizon)
        rows = [line.split(",") for line in lines[1:]]
        steps = [int(row[0]) for row in rows]
        if steps != [horizon * (i + 1) for i in range(n_updates)]:
            errs.append(f"{what}: log has steps {steps}")
        if not all(math.isfinite(float(v)) for row in rows for v in row):
            errs.append(f"{what}: non-finite value in the training log")
        policy, critic, _hyper, meta = m.ppo.load_checkpoint(ckpt)
        arrays = policy.actor.arrays() + [policy.logstd] + critic.arrays()
        if not all(np.all(np.isfinite(a)) for a in arrays):
            errs.append(f"{what}: non-finite checkpoint parameters")
        if (meta["M"], meta["K"], meta["N"]) != (cfg.M, cfg.K, cfg.N):
            errs.append(f"{what}: checkpoint meta {meta}")
        loaded = m.harness.load_policy(ckpt)
        for i, sc in enumerate(self.scenarios):
            action = m.harness.policy_action(sc, loaded)
            if not action.in_bounds():
                errs.append(f"{what}: action {action} outside the box")
                continue
            dec = m.alloc.realize(action, sc, cfg)
            errs += decision_errors(action, dec, sc, cfg, what)
            if i < 4:
                errs += reference_errors(
                    reference.evaluate_decision(sc, dec, cfg),
                    m.perf.evaluate(sc, dec, cfg), what)
        if r > 0:
            shutil.rmtree(out_dir, ignore_errors=True)
        return errs

    def final_checks(self):
        """A second run with round 0's seed writes identical bytes."""
        first = self.out_root / "round0"
        again = self.out_root / "again"
        self._train(0, again)
        errs = []
        for name in ("train_proposed.csv", "proposed.ckpt"):
            if (first / name).read_bytes() != (again / name).read_bytes():
                errs.append(f"train rerun: {name} differs from round 0")
        shutil.rmtree(self.out_root, ignore_errors=True)
        return errs + gamma_errors(self.scenarios[0], self.cfg, "train")


class OracleFull:
    """harness.grid_oracle on held-out scenarios at the paper's scale with
    the 20x17x17 grid, one scenario per operation."""

    name = "oracle_full"
    unit = "oracle scenarios"
    N_SCENARIOS = 16      # the set cycles when a run gets through it
    N_PROBES = 24         # seeded grid points that must not beat the oracle

    def setup(self, m, seed, out_root):
        self.m, self.seed = m, seed
        self.cfg = m.config.SystemConfig(M=40, K=20, N=20, tau_p=20)
        self.grid = m.harness.default_grid(20, 17, 17)
        self.scenarios = m.harness.held_out_scenarios(
            self.cfg, self.N_SCENARIOS, seed)

    def round_ops(self, r):
        sc = self.scenarios[r % len(self.scenarios)]
        return [(lambda: self.m.harness.grid_oracle([sc], self.grid,
                                                    self.cfg)[0],
                 lambda best: (1, self._check(r, sc, best)))]

    def _check(self, r, sc, best):
        m, cfg = self.m, self.cfg
        what = f"oracle scenario {sc.seed}"
        dec = m.alloc.realize(best.action, sc, cfg)
        errs = decision_errors(best.action, dec, sc, cfg, what)
        ref = reference.evaluate_decision(sc, dec, cfg)
        if not close(ref.reward(PENALTY), best.reward):
            errs.append(f"{what}: reward {best.reward!r} != reference "
                        f"{ref.reward(PENALTY)!r}")
        rng = np.random.default_rng([self.seed, r])
        for _ in range(self.N_PROBES):
            probe = m.alloc.Action(*(float(rng.choice(self.grid[c]))
                                     for c in ("zeta", "kappa", "nu")))
            pdec = m.alloc.realize(probe, sc, cfg)
            reward = reference.evaluate_decision(sc, pdec, cfg).reward(
                PENALTY)
            if reward > best.reward and not close(reward, best.reward):
                errs.append(f"{what}: grid point {probe} beats the oracle")
        return errs

    def final_checks(self):
        return gamma_errors(self.scenarios[0], self.cfg, "oracle")


class DecideFull:
    """Closed loop, one caller, M=40 K=20 N=20: feature map ->
    policy.deterministic_action -> alloc.realize on a fresh scenario per
    decision.  The policy is the zero-shot network `cfee bench --zero-shot`
    times, fed standardized dB features as a trained policy would be."""

    name = "decide_full"
    unit = "decisions"
    N_SCENARIOS = 1024    # one round; its p99 has ten decisions beyond it
    REFERENCE_EVERY = 16   # decisions per reference allocation and evaluation

    def setup(self, m, seed, out_root):
        self.m, self.seed = m, seed
        cfg = self.cfg = m.config.SystemConfig(M=40, K=20, N=20, tau_p=20)
        base = 2 ** 40 + seed * self.N_SCENARIOS
        self.scenarios = [m.netgen.generate_scenario(cfg, base + i)
                          for i in range(self.N_SCENARIOS)]
        rng = np.random.default_rng(seed)
        policy = m.harness.build_policy("proposed", cfg.M * cfg.K, rng)
        norm = m.env.FeatureNormalizer(cfg.M * cfg.K,
                                       warmup=self.N_SCENARIOS)
        for sc in self.scenarios:
            norm.update(10.0 * np.log10(sc.beta.ravel()))
        self.loaded = m.harness.LoadedPolicy(
            policy=policy, scheme="proposed", normalizer=norm,
            feature_mode="db_standardized", meta={})
        self.n_decisions = 0
        self.active_aps = 0

    def _decide(self, sc):
        m = self.m
        feats = m.harness.policy_features(sc, self.loaded)
        vec = self.loaded.policy.deterministic_action(feats)
        action = m.harness.scheme_action(vec, "proposed")
        return action, m.alloc.realize(action, sc, self.cfg)

    def round_ops(self, r):
        return [(lambda sc=sc: self._decide(sc),
                 lambda out, sc=sc: (1, self._check(sc, *out)))
                for sc in self.scenarios]

    def _check(self, sc, action, dec):
        m, cfg = self.m, self.cfg
        what = f"decision on scenario {sc.seed}"
        self.n_decisions += 1
        self.active_aps += len(dec.active)
        errs = []
        if not action.in_bounds():
            errs.append(f"{what}: action {action} outside the box")
        sampled = self.n_decisions % self.REFERENCE_EVERY == 1
        errs += decision_errors(action, dec, sc, cfg, what, rules=sampled)
        if sampled:
            errs += reference_errors(
                reference.evaluate_decision(sc, dec, cfg),
                m.perf.evaluate(sc, dec, cfg), what)
        return errs

    def final_checks(self):
        return gamma_errors(self.scenarios[0], self.cfg, "decide")

    def extra(self):
        return {"mean_active_aps": self.active_aps / max(1, self.n_decisions)}


class McCheck:
    """harness.validate_se on random small instances, CASES per operation;
    the fifth case of each operation shares one pilot among all users.

    A unit of work is one simulated complex channel coefficient
    (realizations x M x N x K): case sizes are drawn at random and the
    kernel's time grows with M N K, so counting realizations alone would
    let the case mix of a seed set the figure."""

    name = "mc_check"
    unit = "MC channel samples"
    CASES = 5
    REALIZATIONS = 100_000
    # closed form vs MC per user: |mc - cf| <= MAX_REL * cf + SE_ATOL.
    # The absolute floor covers users with a vanishing SE (1e-12 bit/s/Hz
    # occurs), whose relative MC error stays above 3% at any affordable
    # realization count.
    MAX_REL = 0.03
    SE_ATOL = 1e-3

    def setup(self, m, seed, out_root):
        self.m, self.seed = m, seed
        self.captured = []
        self.gbytes = 0.0

    def install(self):
        """Keep each MC call's inputs and output for the reference check."""
        harness = self.m.harness
        self._original = original = harness.mc_se_oracle

        def capture(sc, dec, cfg, n_realizations, *args, **kwargs):
            se = original(sc, dec, cfg, n_realizations, *args, **kwargs)
            self.captured.append((sc, dec, cfg, n_realizations, se))
            return se
        harness.mc_se_oracle = capture

    def uninstall(self):
        self.m.harness.mc_se_oracle = self._original

    def _validate(self, first):
        self.captured.clear()
        return self.m.harness.validate_se(
            n_cases=self.CASES, n_realizations=self.REALIZATIONS,
            seed=first, max_rel=self.MAX_REL)

    def round_ops(self, r):
        self.timed_round = r > 0     # round 0 is the untimed warm-up
        first = self.seed * 1_000_000 + r * self.CASES
        return [(lambda: self._validate(first), self._check)]

    def _check(self, cases):
        units, errs = 0, []
        if len(self.captured) != len(cases) or len(cases) != self.CASES:
            errs.append(f"mc: {len(cases)} cases, {len(self.captured)} MC "
                        "calls")
        for case, (sc, dec, cfg, n_real, se_mc) in zip(cases, self.captured):
            what = f"mc case {case.seed}"
            units += n_real * sc.M * cfg.N * sc.K
            if self.timed_round:
                self.gbytes += self.computed_bytes(sc, cfg.N, n_real) / 1e9
            ref = reference.evaluate_decision(sc, dec, cfg).se_per_user
            excess = np.abs(se_mc - ref) - (self.MAX_REL * ref + self.SE_ATOL)
            if np.any(excess > 0):
                errs.append(f"{what}: MC SE {se_mc} vs reference {ref}")
            errs += gamma_errors(sc, cfg, what)
        return units, errs

    def final_checks(self):
        return []

    @staticmethod
    def computed_bytes(sc, N, R):
        """Bytes of the complex arrays mc_se_oracle materialises, each
        counted once: h, gA, ytilde, ghat (R M N K), w and the pilot-group
        sum (R M N G), u (R M K K) and b (R K K).  Computed from array
        sizes, not measured."""
        M, K = sc.beta.shape
        G = len({tuple(np.flatnonzero(col > 0.5))
                 for col in sc.pilot_xcorr.T})
        return 16 * R * (4 * M * N * K + 2 * M * N * G + M * K * K + K * K)


WORKLOADS = {w.name: w for w in (TrainDesk, OracleFull, DecideFull, McCheck)}
