# Command-line entry point for scenario generation, training, evaluation,
# oracle search, sweeps, runtime benchmarks, and SE validation.
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .alloc import realize
from .config import SystemConfig
from .env import DEFAULT_PENALTY
from .harness import SCHEMES, bench_runtime, default_grid, grid_oracle, \
    held_out_scenarios, latency_growth_exponent, load_config, load_policy, \
    parse_grid, policy_action, sweep_pbt, train_scheme, validate_se
from .netgen import generate_scenario, load_scenario, save_scenario
from .perf import REPORT_CSV_HEADER, evaluate, report_csv_row


def cmd_gen(args) -> int:
    conf = load_config(args.config)
    sc = generate_scenario(conf["system"], args.seed)
    save_scenario(sc, args.out)
    print(f"wrote scenario seed={args.seed} to {args.out}")
    return 0


def cmd_train(args) -> int:
    conf = load_config(args.config)
    seed = args.seed if args.seed is not None else conf["master_seed"]
    ckpt = train_scheme(conf["system"], args.scheme, conf["ppo"],
                        master_seed=seed, out_dir=args.out,
                        episode_length=conf["episode_length"],
                        feature_mode=conf["feature_mode"],
                        total_steps=args.steps)
    print(f"trained {args.scheme}; checkpoint at {ckpt}")
    return 0


def _eval_config(config_path, meta: dict) -> SystemConfig:
    """The system to evaluate a checkpoint in: every SystemConfig field the
    checkpoint records (older checkpoints record only M, K and N), the
    others from `config_path` (defaults without one). A config that sets a
    recorded field to another value raises ValueError naming it."""
    conf = load_config(config_path)
    cfg = conf["system"]
    recorded = meta.get("system") or {
        f: meta[f] for f in ("M", "K", "N") if f in meta}
    for f in conf["system_keys"]:
        if f in recorded and getattr(cfg, f) != recorded[f]:
            raise ValueError(f"{config_path} sets {f}={getattr(cfg, f)!r}, "
                             f"but the checkpoint was trained with "
                             f"{f}={recorded[f]!r}")
    return dataclasses.replace(cfg, **recorded)


def cmd_eval(args) -> int:
    loaded = load_policy(args.checkpoint)
    cfg = _eval_config(args.config, loaded.meta)
    scen_dirs = sorted(p for p in Path(args.scenarios).iterdir()
                       if (p / "beta.csv").exists())
    if not scen_dirs:
        print("no scenario bundles found", file=sys.stderr)
        return 1
    scenarios = [load_scenario(p) for p in scen_dirs]
    out = Path(args.out or "eval_results.csv")
    ees = []
    with open(out, "w") as f:
        f.write(REPORT_CSV_HEADER + "\n")
        for sc in scenarios:
            action = policy_action(sc, loaded)
            dec = realize(action, sc, cfg)
            report = evaluate(sc, dec, cfg)
            ees.append(report.ee_mbits_per_joule)
            f.write(report_csv_row(sc.seed, action, dec, report) + "\n")
    print(f"evaluated {len(ees)} scenarios; "
          f"mean EE = {np.mean(ees):.3f} Mbit/J; results in {out}")
    return 0


def cmd_oracle(args) -> int:
    conf = load_config(args.config)
    cfg = conf["system"]
    grid = parse_grid(args.grid) if args.grid else default_grid()
    scenarios = held_out_scenarios(cfg, args.scenarios, args.seed)
    results = grid_oracle(scenarios, grid, cfg, penalty=args.penalty)
    order = np.argsort([sc.seed for sc in scenarios])
    out = Path(args.out or "oracle_results.csv")
    with open(out, "w") as f:
        f.write("seed,zeta,kappa,nu,reward,ee_mbits_per_joule\n")
        for i in order:
            sc, r = scenarios[i], results[i]
            f.write("%d,%.12g,%.12g,%.12g,%.12g,%.12g\n" % (
                sc.seed, r.action.zeta, r.action.kappa, r.action.nu,
                r.reward, r.ee_mbits_per_joule))
    mean_ee = np.mean([r.ee_mbits_per_joule for r in results])
    print(f"oracle over {len(results)} scenarios: "
          f"mean EE = {mean_ee:.3f} Mbit/J; results in {out}")
    return 0


def cmd_sweep_pbt(args) -> int:
    conf = load_config(args.config)
    values = [float(v) for v in args.values.split(",")]
    ckpt_dir = Path(args.checkpoints)
    checkpoints = {}
    for scheme in SCHEMES:
        p = ckpt_dir / f"{scheme}.ckpt"
        if p.exists():
            checkpoints[scheme] = p
    if not checkpoints:
        print(f"no checkpoints found in {ckpt_dir}", file=sys.stderr)
        return 1
    rows = sweep_pbt(checkpoints, values, conf["system"],
                     n_scenarios=args.scenarios, seed=args.seed)
    out = Path(args.out or "sweep_pbt.csv")
    with open(out, "w") as f:
        f.write("p_bt,scheme,mean_ee_mbits_per_joule,stderr_ee,"
                "n_scenarios\n")
        for r in rows:
            f.write("%g,%s,%.12g,%.12g,%d\n" % (
                r["p_bt"], r["scheme"], r["mean_ee_mbits_per_joule"],
                r["stderr_ee"], r["n_scenarios"]))
    print(f"sweep over P_bt = {values}; results in {out}")
    return 0


def cmd_bench(args) -> int:
    conf = load_config(args.config)
    m_values = [int(v) for v in args.m_values.split(",")]
    ckpt = None if args.zero_shot else args.checkpoint
    rows = bench_runtime(m_values, conf["system"], checkpoint=ckpt,
                         n_calls=args.calls)
    out = Path(args.out or "bench_runtime.csv")
    with open(out, "w") as f:
        f.write("M,policy_median_ms,policy_p95_ms,oracle_median_ms,"
                "speedup\n")
        for r in rows:
            f.write("%d,%.6g,%.6g,%.6g,%.6g\n" % (
                r["M"], r["policy_median_ms"], r["policy_p95_ms"],
                r["oracle_median_ms"], r["speedup"]))
    exponent = latency_growth_exponent(rows)
    print(f"latency growth exponent in M: {exponent:.3f}; results in {out}")
    return 0


def cmd_validate_se(args) -> int:
    cases = validate_se(n_cases=args.cases,
                        n_realizations=args.realizations, seed=args.seed)
    worst = max(cases, key=lambda c: c.max_rel_err)
    for c in cases:
        status = "pass" if c.ok else (
            f"FAIL: worst user {c.worst_user}, closed-form SE "
            f"{c.worst_user_se:.3g} bit/s/Hz")
        print(f"seed={c.seed} M={c.M} K={c.K} N={c.N} tau_p={c.tau_p} "
              f"max_rel_err={c.max_rel_err:.4f} {status}")
    print(f"worst case: seed={worst.seed}, "
          f"max_rel_err={worst.max_rel_err:.4f}")
    if not all(c.ok for c in cases):
        print("closed-form/MC validation FAILED", file=sys.stderr)
        return 1
    print("closed-form/MC validation passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cfee",
        description="Cell-free massive MIMO energy-efficiency laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate one scenario CSV bundle")
    g.add_argument("--config", default=None)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train a PPO scheme")
    t.add_argument("--config", default=None)
    t.add_argument("--scheme", choices=SCHEMES, default="proposed")
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--steps", type=int, default=None,
                   help="override total training steps")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on scenarios")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--scenarios", required=True,
                   help="directory of scenario bundles")
    e.add_argument("--config", default=None)
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_eval)

    o = sub.add_parser("oracle", help="grid-search oracle over (z, k, n)")
    o.add_argument("--config", default=None)
    o.add_argument("--grid", default=None,
                   help='e.g. "z=0.05:1:20,k=0:4:17,n=0:4:17"')
    o.add_argument("--scenarios", type=int, default=100)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--penalty", type=float, default=DEFAULT_PENALTY)
    o.add_argument("--out", default=None)
    o.set_defaults(func=cmd_oracle)

    s = sub.add_parser("sweep-pbt", help="EE vs backhaul traffic power")
    s.add_argument("--values", default="0,0.0625,0.125,0.1875,0.25")
    s.add_argument("--checkpoints", required=True,
                   help="directory holding <scheme>.ckpt files")
    s.add_argument("--config", default=None)
    s.add_argument("--scenarios", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_sweep_pbt)

    b = sub.add_parser("bench", help="per-decision latency benchmark")
    b.add_argument("--m-values", default="20,40,60,80,100")
    b.add_argument("--config", default=None)
    b.add_argument("--checkpoint", default=None)
    b.add_argument("--zero-shot", action="store_true",
                   help="time a freshly initialized policy")
    b.add_argument("--calls", type=int, default=1000)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bench)

    v = sub.add_parser("validate-se",
                       help="closed form vs Monte Carlo cross-check")
    v.add_argument("--cases", type=int, default=20)
    v.add_argument("--realizations", type=int, default=100_000)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_validate_se)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
