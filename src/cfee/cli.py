# Command-line entry point for scenario generation, training, evaluation,
# oracle search, sweeps, runtime benchmarks, and SE validation.
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .alloc import realize
from .harness import SCHEMES, bench_runtime, checkpoint_system, \
    default_grid, grid_oracle, held_out_scenarios, latency_growth_exponent, \
    load_config, load_policy, parse_grid, policy_action, sweep_pbt, \
    train_scheme, validate_se
from .netgen import generate_scenario, load_scenario, save_scenario
from .perf import REPORT_CSV_HEADER, evaluate, report_csv_row


def _write_csv(out: Path, header: str, row_format: str, rows) -> None:
    with open(out, "w") as f:
        f.write(header + "\n")
        f.writelines(row_format % tuple(row) + "\n" for row in rows)


def _at_least(flag: str, value: int, low: int = 1) -> None:
    """A count flag below `low` raises ValueError naming it."""
    if value < low:
        raise ValueError(f"{flag} must be >= {low}, got {value}")


def cmd_gen(args) -> int:
    conf = load_config(args.config)
    sc = generate_scenario(conf["system"], args.seed)
    save_scenario(sc, args.out)
    print(f"wrote scenario seed={args.seed} to {args.out}")
    return 0


def cmd_train(args) -> int:
    conf = load_config(args.config)
    if args.steps is not None:
        _at_least("--steps", args.steps)
    seed = args.seed if args.seed is not None else conf["master_seed"]
    ckpt = train_scheme(conf["system"], args.scheme, conf["ppo"],
                        master_seed=seed, out_dir=args.out,
                        episode_length=conf["episode_length"],
                        total_steps=args.steps)
    print(f"trained {args.scheme}; checkpoint at {ckpt}")
    return 0


def cmd_eval(args) -> int:
    loaded = load_policy(args.checkpoint)
    cfg = checkpoint_system(args.config, {args.checkpoint: loaded.meta})
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
    _at_least("--scenarios", args.scenarios)
    conf = load_config(args.config)
    cfg = conf["system"]
    grid = parse_grid(args.grid) if args.grid else default_grid()
    scenarios = held_out_scenarios(cfg, args.scenarios, args.seed)
    results = grid_oracle(scenarios, grid, cfg, penalty=conf["ppo"].penalty)
    out = Path(args.out or "oracle_results.csv")
    _write_csv(out, "seed,zeta,kappa,nu,reward,ee_mbits_per_joule",
               "%d,%.12g,%.12g,%.12g,%.12g,%.12g",
               ((sc.seed, r.action.zeta, r.action.kappa, r.action.nu,
                 r.reward, r.ee_mbits_per_joule) for sc, r in
                sorted(zip(scenarios, results), key=lambda p: p[0].seed)))
    mean_ee = np.mean([r.ee_mbits_per_joule for r in results])
    print(f"oracle over {len(results)} scenarios: "
          f"mean EE = {mean_ee:.3f} Mbit/J; results in {out}")
    return 0


def cmd_sweep_pbt(args) -> int:
    # the standard error of the mean EE needs two scenarios
    _at_least("--scenarios", args.scenarios, 2)
    values = [float(v) for v in args.values.split(",")]
    ckpt_dir = Path(args.checkpoints)
    checkpoints = {s: ckpt_dir / f"{s}.ckpt" for s in SCHEMES
                   if (ckpt_dir / f"{s}.ckpt").exists()}
    if not checkpoints:
        print(f"no checkpoints found in {ckpt_dir}", file=sys.stderr)
        return 1
    rows = sweep_pbt(checkpoints, values, args.config,
                     n_scenarios=args.scenarios, seed=args.seed)
    out = Path(args.out or "sweep_pbt.csv")
    _write_csv(out, ",".join(rows[0]), "%g,%s,%.12g,%.12g,%d",
               (r.values() for r in rows))
    print(f"sweep over P_bt = {values}; results in {out}")
    return 0


def cmd_bench(args) -> int:
    _at_least("--calls", args.calls)
    metas = {} if args.checkpoint is None else {
        args.checkpoint: load_policy(args.checkpoint).meta}
    cfg = checkpoint_system(args.config, metas)
    if args.m_values is not None:
        m_values = [int(v) for v in args.m_values.split(",")]
    else:
        m_values = [cfg.M] if metas else [20, 40, 60, 80, 100]
    rows = bench_runtime(m_values, cfg, checkpoint=args.checkpoint,
                         n_calls=args.calls)
    out = Path(args.out or "bench_runtime.csv")
    _write_csv(out, ",".join(rows[0]), "%d,%.6g,%.6g,%.6g,%.6g",
               (r.values() for r in rows))
    try:
        summary = ("latency growth exponent in M: "
                   f"{latency_growth_exponent(rows):.3f}")
    except ValueError as exc:
        summary = str(exc)
    print(f"{summary}; results in {out}")
    return 0


def cmd_validate_se(args) -> int:
    _at_least("--cases", args.cases)
    _at_least("--realizations", args.realizations)
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
    b.add_argument("--m-values", default=None,
                   help="comma-separated network sizes; default: the "
                        "checkpoint's M, or 20,40,60,80,100 without one")
    b.add_argument("--config", default=None)
    b.add_argument("--checkpoint", default=None,
                   help="time this policy; without one, a freshly "
                        "initialized policy (zero-shot)")
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
