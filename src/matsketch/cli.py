"""Command-line interface.

Exit codes, each failure with a one-line ``error:`` message on stderr:

    0  success
    1  parameter or usage error
    2  solver non-convergence
    3  file error (OSError: a missing or unreadable input, an unwritable --out)
    4  bad configuration (--config or --pipeline-config is not valid JSON,
       or --config names a field SolverOptions does not have)
    5  solver failure (RuntimeError, e.g. the LP behind solve_p1 failed)
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import ensemble, pipelines, verify
from .ensemble import ParameterError
from .harness import (
    TrialConfig,
    derive_seed,
    noise_sweep,
    noise_sweep_csv,
    paper_grid,
    phase_diagram,
    render_phase_svg,
    run_trial,
)
from .operator import SketchOperator
from .solver import SolverOptions


def _common_flags(sub):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--config", default=None, help="solver options JSON")
    sub.add_argument("--delta", type=int, default=None, help="left degree")
    sub.add_argument("--clip-binary", action="store_true",
                     help="clip multi-edge adjacency counts to 0/1")


class ConfigError(Exception):
    """A configuration file that does not describe valid options."""


def _opts(args) -> SolverOptions:
    if not args.config:
        return SolverOptions()
    try:
        return SolverOptions.from_json(args.config)
    except (json.JSONDecodeError, TypeError) as exc:  # TypeError: unknown field or bad value
        raise ConfigError(f"{args.config}: {exc}") from None


def _outpath(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _load_operator(args) -> SketchOperator:
    g1 = ensemble.load_graph(args.graph)
    g2 = ensemble.load_graph(args.graph_b) if args.graph_b else None
    return SketchOperator.from_graphs(g1, g2, clip_binary=args.clip_binary)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matsketch",
        description="Recover distributed-sparse matrices from tensor-product sketches",
    )
    subs = parser.add_subparsers(dest="command")

    s = subs.add_parser("gen-graph", help="generate a left-regular bipartite graph")
    _common_flags(s)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--m", type=int, required=True)

    s = subs.add_parser("sketch", help="compute Y = A X B^T from files")
    _common_flags(s)
    s.add_argument("--graph", required=True)
    s.add_argument("--graph-b", default=None)
    s.add_argument("--matrix", required=True, help="X as CSV")

    s = subs.add_parser("recover", help="run one generate/sketch/recover trial")
    _common_flags(s)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--mode", choices=["p1", "p2", "constrained"], default="p1")
    s.add_argument("--lam", type=float, default=1e-3)
    s.add_argument("--kappa", type=float, default=0.0)

    s = subs.add_parser("check-expansion", help="tensor-graph expansion verifier")
    _common_flags(s)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--eps", type=float, default=0.25)
    s.add_argument("--trials", type=int, default=20)

    s = subs.add_parser("check-rip", help="l1 restricted isometry verifier")
    _common_flags(s)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--eps", type=float, default=0.25)
    s.add_argument("--trials", type=int, default=100)

    s = subs.add_parser("check-nullspace", help="sampled nullspace-property verifier")
    _common_flags(s)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--samples", type=int, default=20)
    s.add_argument("--trials", type=int, default=20)

    s = subs.add_parser("phase-diagram", help="success-rate grid with CSV/SVG output")
    _common_flags(s)
    s.add_argument("--trials", type=int, default=40)
    s.add_argument("--d", type=int, default=4)
    s.add_argument("--p-step", type=int, default=2)
    s.add_argument("--m-step", type=int, default=2)
    s.add_argument("--threads", type=int, default=None)

    s = subs.add_parser("cov-sketch", help="covariance sketching pipeline from JSON config")
    _common_flags(s)
    s.add_argument("--pipeline-config", required=True)

    s = subs.add_parser("graph-sketch", help="sketch (and optionally unsketch) a graph")
    _common_flags(s)
    s.add_argument("--edges", required=True, help="edge list file, 1-based 'u v' lines")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--partition", default=None, help="'vertex part' lines; random if absent")
    s.add_argument("--m", type=int, default=None)
    s.add_argument("--unsketch", action="store_true")

    s = subs.add_parser("noise-sweep", help="recovery error vs perturbation mass")
    _common_flags(s)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--scales", default="0,0.5,1,2", help="comma-separated l1 masses")
    s.add_argument("--trials", type=int, default=20)

    s = subs.add_parser("arrow-demo", help="arrow-matrix non-identifiability witness")
    _common_flags(s)
    s.add_argument("--p", type=int, default=40)
    s.add_argument("--m", type=int, default=21)

    return parser


def _cmd_gen_graph(args) -> int:
    delta = args.delta or ensemble.default_delta(args.p)
    g = ensemble.gen_left_regular(args.p, args.m, delta, args.seed)
    path = _outpath(args, "graph.txt")
    ensemble.save_graph(g, path)
    print(path)
    return 0


def _cmd_sketch(args) -> int:
    op = _load_operator(args)
    X = ensemble.load_matrix_csv(args.matrix)
    path = _outpath(args, "sketch.csv")
    ensemble.save_matrix_csv(op.forward(X), path)
    print(path)
    return 0


def _cmd_recover(args) -> int:
    cfg = TrialConfig(
        p=args.p,
        m=args.m,
        d=args.d,
        delta=args.delta,
        seed=args.seed,
        mode=args.mode,
        lam=args.lam,
        kappa=args.kappa,
        clip_binary=args.clip_binary,
    )
    record = run_trial(cfg, _opts(args))
    text = record.to_json()
    with open(_outpath(args, "trial.json"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0 if record.converged else 2


def _trial_ensemble(args, tag, t):
    seed = derive_seed(args.seed, tag, t)
    delta = args.delta or ensemble.default_delta(args.p)
    g = ensemble.gen_left_regular(args.p, args.m, delta, derive_seed(seed, "graph"))
    support = ensemble.gen_distributed_support(args.p, args.d, derive_seed(seed, "support"))
    return g, support, seed


def _cmd_check_expansion(args) -> int:
    passed = 0
    print("trial  |N(Omega)|  bound     out  in   bound  pass")
    for t in range(args.trials):
        g, support, _ = _trial_ensemble(args, "expansion", t)
        rep = verify.check_expansion(ensemble.TensorGraph(g, g), support, args.eps)
        passed += rep.passed_all
        print(
            f"{t:5d}  {rep.neighborhood_size:10d}  {rep.bound:8.1f}  "
            f"{rep.max_collision_outside:3d}  {rep.max_collision_inside:3d}  "
            f"{rep.collision_bound:5.1f}  {'PASS' if rep.passed_all else 'FAIL'}"
        )
    print(f"passed {passed}/{args.trials}")
    return 0


def _cmd_check_rip(args) -> int:
    lower_ok = 0
    upper_ok = 0
    for t in range(args.trials):
        g, support, seed = _trial_ensemble(args, "rip", t)
        op = SketchOperator.from_graphs(g, clip_binary=args.clip_binary)
        X = ensemble.gen_distributed_matrix(
            support, ("gaussian", 0.0, 1.0), derive_seed(seed, "values")
        )
        rep = verify.check_rip1(op, X, args.eps)
        lower_ok += rep.lower_ok
        upper_ok += rep.upper_ok
    print(f"upper bound held {upper_ok}/{args.trials}")
    print(f"lower bound held {lower_ok}/{args.trials}")
    return 0


def _cmd_check_nullspace(args) -> int:
    below_one = 0
    for t in range(args.trials):
        g, support, seed = _trial_ensemble(args, "nullspace", t)
        op = SketchOperator.from_graphs(g, clip_binary=args.clip_binary)
        ratio = verify.check_nullspace(
            op, support, args.samples, derive_seed(seed, "kernel")
        )
        below_one += ratio < 1.0
        print(f"trial {t}: max ratio {ratio:.4f} {'PASS' if ratio < 1.0 else 'FAIL'}")
    print(f"ratio below 1 in {below_one}/{args.trials} trials")
    return 0


def _cmd_phase_diagram(args) -> int:
    ps, ms = paper_grid()
    ps = ps[:: max(1, args.p_step // 2)]
    ms = ms[:: max(1, args.m_step // 2)]
    grid = phase_diagram(
        ps, ms, args.trials, args.d, args.seed, delta=args.delta, threads=args.threads
    )
    grid.to_csv(_outpath(args, "phase.csv"))
    with open(_outpath(args, "phase.svg"), "w") as fh:
        fh.write(render_phase_svg(grid))
    print(_outpath(args, "phase.csv"))
    print(_outpath(args, "phase.svg"))
    return 0


def _cmd_cov_sketch(args) -> int:
    with open(args.pipeline_config) as fh:
        cfg = json.load(fh)
    p, d, n, m = cfg["p"], cfg["d"], cfg["n"], cfg["m"]
    delta = cfg.get("delta") or ensemble.default_delta(p)
    seed = cfg.get("seed", 0)
    sigma = pipelines.gen_distributed_covariance(p, d, derive_seed(seed, "sigma"))
    stream = pipelines.SampleStream(sigma=sigma, n=n, seed=derive_seed(seed, "stream"))
    A = ensemble.gen_left_regular(p, m, delta, derive_seed(seed, "graph")).adjacency(
        clip_binary=args.clip_binary
    )
    sigma_z = pipelines.cov_sketch(stream, A)
    mode = cfg.get("mode", "constrained")
    if mode == "constrained":
        kappa = cfg.get("kappa")
        if kappa is None:
            grid = cfg.get("kappa_grid")
            grid = np.asarray(grid, dtype=float) if grid else None
            kappa = pipelines.select_kappa_cv(A, stream, grid=grid, seed=seed)
        res = pipelines.recover_covariance(A, sigma_z, "constrained", kappa=kappa)
    else:
        res = pipelines.recover_covariance(A, sigma_z, "exact")
    ensemble.save_matrix_csv(res.x, _outpath(args, "covariance.csv"))
    rel_err = float(np.abs(res.x - sigma).sum() / np.abs(sigma).sum())
    summary = {"relative_l1_error": rel_err, "result": json.loads(res.to_json())}
    with open(_outpath(args, "covariance.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if res.converged else 2


def _cmd_graph_sketch(args) -> int:
    X = pipelines.load_edge_list(args.edges, args.p)
    if args.partition:
        parts = pipelines.load_partition(args.partition, args.p)
        pg = pipelines.PartitionedGraph(adjacency=X, parts=parts)
        A = pg.indicator()
        Y = pipelines.graph_sketch(pg)
    else:
        if args.m is None:
            raise ParameterError("need --partition or --m for a random partition")
        delta = args.delta or ensemble.default_delta(args.p)
        A = pipelines.random_partition(args.p, args.m, delta, args.seed)
        Y = A @ X @ A.T
    ensemble.save_matrix_csv(Y, _outpath(args, "graph_sketch.csv"))
    print(_outpath(args, "graph_sketch.csv"))
    if args.unsketch:
        res, rounded = pipelines.graph_unsketch(Y, A)
        ensemble.save_matrix_csv(rounded, _outpath(args, "graph_recovered.csv"))
        print(_outpath(args, "graph_recovered.csv"))
        return 0 if res.converged else 2
    return 0


def _cmd_noise_sweep(args) -> int:
    scales = sorted(float(s) for s in args.scales.split(","))
    cfg = TrialConfig(
        p=args.p, m=args.m, d=args.d, delta=args.delta, seed=args.seed,
        clip_binary=args.clip_binary,
    )
    rows = noise_sweep(cfg, scales, trials=args.trials, opts=_opts(args))
    noise_sweep_csv(rows, _outpath(args, "noise.csv"))
    print(_outpath(args, "noise.csv"))
    return 0


def _cmd_arrow_demo(args) -> int:
    delta = args.delta or ensemble.default_delta(args.p)
    g = ensemble.gen_left_regular(args.p, args.m, delta, args.seed)
    op = SketchOperator.from_graphs(g, clip_binary=args.clip_binary)
    X, X_alt = verify.arrow_ambiguity_witness(op)
    gap = float(np.abs(X - X_alt).sum())
    res = float(np.linalg.norm(op.forward(X) - op.forward(X_alt)))
    print(f"distinct matrices with identical sketches: l1 gap {gap:.4f}, "
          f"sketch residual {res:.2e}")
    return 0


_COMMANDS = {
    "gen-graph": _cmd_gen_graph,
    "sketch": _cmd_sketch,
    "recover": _cmd_recover,
    "check-expansion": _cmd_check_expansion,
    "check-rip": _cmd_check_rip,
    "check-nullspace": _cmd_check_nullspace,
    "phase-diagram": _cmd_phase_diagram,
    "cov-sketch": _cmd_cov_sketch,
    "graph-sketch": _cmd_graph_sketch,
    "noise-sweep": _cmd_noise_sweep,
    "arrow-demo": _cmd_arrow_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage()
        return 1
    try:
        return _COMMANDS[args.command](args)
    except ParameterError as exc:
        return _fail(exc, 1)
    except OSError as exc:
        return _fail(exc, 3)
    except (ConfigError, json.JSONDecodeError) as exc:
        return _fail(exc, 4)
    except RuntimeError as exc:
        return _fail(exc, 5)


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
