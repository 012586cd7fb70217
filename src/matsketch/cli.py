"""Command-line interface.

Every flag is declared once in ``FLAGS``; each entry of ``SUBCOMMANDS``
lists the flags its handler honours. A flag a subcommand does not list is
a usage error (exit 1), never silently ignored.

Exit codes, each failure with a one-line ``error:`` message on stderr:

    0  success
    1  parameter or usage error (an unlisted or malformed flag included)
    2  solver non-convergence
    3  file error (OSError: a missing or unreadable input, an unwritable --out)
    4  bad configuration (--config or --pipeline-config is not valid JSON,
       --config names a field SolverOptions does not have, or the pipeline
       JSON lacks one of p, d, n, m, has a key outside PIPELINE_KEYS, or
       gives a key a value its entry there rejects)
    5  solver failure (RuntimeError, e.g. the LP behind solve_p1 failed)
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, NamedTuple

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


def _even_step(text: str) -> int:
    step = int(text)
    if step < 1 or step % 2:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive even number")
    return step


def _scales(text: str) -> list:
    try:
        return sorted(float(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of numbers"
        ) from None


#: every flag's one spec: argparse keywords without ``required``
FLAGS = {
    "seed": dict(type=int, default=0, help="master seed"),
    "out": dict(default=".", help="output directory"),
    "config": dict(help="solver options JSON"),
    "delta": dict(type=int, help="left degree (default max(2, ceil(ln p)))"),
    "clip-binary": dict(action="store_true", help="clip multi-edge adjacency counts to 0/1"),
    "p": dict(type=int, help="matrix dimension"),
    "m": dict(type=int, help="sketch dimension"),
    "d": dict(type=int, help="support cells allowed per row and column"),
    "trials": dict(type=int, default=20, help="number of seeded trials"),
    "eps": dict(type=float, default=0.25, help="expansion and RIP tolerance"),
    "samples": dict(type=int, default=20, help="kernel samples per trial"),
    "mode": dict(choices=["p1", "p2", "constrained"], default="p1", help="recovery program"),
    "lam": dict(type=float, default=1e-3, help="p2 penalty"),
    "kappa": dict(type=float, default=0.0, help="constrained-mode radius"),
    "graph": dict(help="graph file of A"),
    "graph-b": dict(help="graph file of B (default: B = A)"),
    "matrix": dict(help="X as CSV"),
    "p-step": dict(type=_even_step, default=2, help="p stride over the paper grid (even)"),
    "m-step": dict(type=_even_step, default=2, help="m stride over the paper grid (even)"),
    "threads": dict(type=int, help="worker processes >= 1 (default SKETCH_THREADS or CPU count)"),
    "pipeline-config": dict(help="covariance pipeline JSON"),
    "edges": dict(help="edge list file, 1-based 'u v' lines"),
    "partition": dict(help="'vertex part' lines; random if absent"),
    "unsketch": dict(action="store_true", help="also recover the graph from its sketch"),
    "scales": dict(type=_scales, default="0,0.5,1,2", help="comma-separated l1 masses"),
}


class ConfigError(Exception):
    """A configuration file that does not describe valid options."""


def _number(v) -> bool:
    """A JSON integer or finite float; true and false are not numbers."""
    return type(v) is int or (type(v) is float and math.isfinite(v))


#: every key the pipeline JSON may hold: the test its value must pass, and
#: what that test asks for
PIPELINE_KEYS = {
    **{key: (lambda v: type(v) is int and v >= 1, "a positive integer")
       for key in ("p", "d", "n", "m", "delta")},
    "seed": (lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    "mode": (lambda v: v in ("constrained", "exact"), '"constrained" or "exact"'),
    "kappa": (lambda v: _number(v) and v >= 0, "a non-negative number"),
    "kappa_grid": (lambda v: type(v) is list and all(_number(k) and k > 0 for k in v),
                   "a list of positive numbers"),
}


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
    ps = ps[:: args.p_step // 2]
    ms = ms[:: args.m_step // 2]
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
    path = args.pipeline_config
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict) or not {"p", "d", "n", "m"} <= cfg.keys():
        raise ConfigError(f"{path}: needs an object with keys p, d, n, m")
    for key, value in cfg.items():
        if key not in PIPELINE_KEYS:
            raise ConfigError(f"{path}: unknown key {key!r}")
        valid, want = PIPELINE_KEYS[key]
        if not valid(value):
            raise ConfigError(f"{path}: {key} must be {want}, not {value!r}")
    p, d, n, m = cfg["p"], cfg["d"], cfg["n"], cfg["m"]
    mode = cfg.get("mode", "constrained")
    delta = cfg.get("delta") or ensemble.default_delta(p)
    seed = cfg.get("seed", 0)
    sigma = pipelines.gen_distributed_covariance(p, d, derive_seed(seed, "sigma"))
    stream = pipelines.SampleStream(sigma=sigma, n=n, seed=derive_seed(seed, "stream"))
    A = ensemble.gen_left_regular(p, m, delta, derive_seed(seed, "graph")).adjacency(
        clip_binary=args.clip_binary
    )
    sigma_z = pipelines.cov_sketch(stream, A)
    opts = _opts(args)
    if mode == "constrained":
        kappa = cfg.get("kappa")
        if kappa is None:
            grid = cfg.get("kappa_grid")
            grid = np.asarray(grid, dtype=float) if grid else None
            kappa = pipelines.select_kappa_cv(A, stream, grid=grid, opts=opts, seed=seed)
        res = pipelines.recover_covariance(A, sigma_z, "constrained", kappa=kappa, opts=opts)
    else:
        res = pipelines.recover_covariance(A, sigma_z, "exact", opts=opts)
    ensemble.save_matrix_csv(res.x, _outpath(args, "covariance.csv"))
    rel_err = float(np.abs(res.x - sigma).sum() / np.abs(sigma).sum())
    summary = {"relative_l1_error": rel_err, "result": json.loads(res.to_json())}
    with open(_outpath(args, "covariance.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if res.converged else 2


def _cmd_graph_sketch(args) -> int:
    opts = _opts(args)
    X = pipelines.load_edge_list(args.edges, args.p)
    if args.partition:
        if (args.m, args.delta, args.seed) != (None, None, None):
            raise ParameterError("--m, --delta and --seed shape a random partition only")
        parts = pipelines.load_partition(args.partition, args.p)
        pg = pipelines.PartitionedGraph(adjacency=X, parts=parts)
        A = pg.indicator()
        Y = pipelines.graph_sketch(pg)
    else:
        if args.m is None:
            raise ParameterError("need --partition or --m for a random partition")
        delta = args.delta or ensemble.default_delta(args.p)
        A = pipelines.random_partition(args.p, args.m, delta, args.seed or 0)
        Y = A @ X @ A.T
    ensemble.save_matrix_csv(Y, _outpath(args, "graph_sketch.csv"))
    print(_outpath(args, "graph_sketch.csv"))
    if args.unsketch:
        res, rounded = pipelines.graph_unsketch(Y, A, opts)
        ensemble.save_matrix_csv(rounded, _outpath(args, "graph_recovered.csv"))
        print(_outpath(args, "graph_recovered.csv"))
        return 0 if res.converged else 2
    return 0


def _cmd_noise_sweep(args) -> int:
    cfg = TrialConfig(
        p=args.p, m=args.m, d=args.d, delta=args.delta, seed=args.seed,
        clip_binary=args.clip_binary,
    )
    rows = noise_sweep(cfg, args.scales, trials=args.trials, opts=_opts(args))
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


class Subcommand(NamedTuple):
    handler: Callable
    help: str
    flags: str  # the FLAGS it honours; a trailing "!" marks a required one
    defaults: dict = {}  # per-subcommand defaults, by flag name


SUBCOMMANDS = {
    "gen-graph": Subcommand(_cmd_gen_graph, "generate a left-regular bipartite graph",
                            "p! m! seed out delta"),
    "sketch": Subcommand(_cmd_sketch, "compute Y = A X B^T from files",
                         "graph! graph-b matrix! out clip-binary"),
    "recover": Subcommand(_cmd_recover, "run one generate/sketch/recover trial",
                          "p! m! d! mode lam kappa seed out config delta clip-binary"),
    "check-expansion": Subcommand(_cmd_check_expansion, "tensor-graph expansion verifier",
                                  "p! m! d! eps trials seed delta"),
    "check-rip": Subcommand(_cmd_check_rip, "l1 restricted isometry verifier",
                            "p! m! d! eps trials seed delta clip-binary", {"trials": 100}),
    "check-nullspace": Subcommand(_cmd_check_nullspace, "sampled nullspace-property verifier",
                                  "p! m! d! samples trials seed delta clip-binary"),
    "phase-diagram": Subcommand(_cmd_phase_diagram, "success-rate grid with CSV/SVG output",
                                "trials d p-step m-step threads seed out delta",
                                {"trials": 40, "d": 4}),
    "cov-sketch": Subcommand(_cmd_cov_sketch, "covariance sketching pipeline from JSON config",
                             "pipeline-config! out config clip-binary"),
    "graph-sketch": Subcommand(_cmd_graph_sketch, "sketch (and optionally unsketch) a graph",
                               "edges! p! partition m unsketch seed out config delta",
                               {"seed": None}),
    "noise-sweep": Subcommand(_cmd_noise_sweep, "recovery error vs perturbation mass",
                              "p! m! d! scales trials seed out config delta clip-binary"),
    "arrow-demo": Subcommand(_cmd_arrow_demo, "arrow-matrix non-identifiability witness",
                             "p m seed delta clip-binary", {"p": 40, "m": 21}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matsketch",
        description="Recover distributed-sparse matrices from tensor-product sketches",
    )
    subs = parser.add_subparsers(dest="command")
    for name, cmd in SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=cmd.help)
        for flag in cmd.flags.split():
            key = flag.rstrip("!")
            spec = dict(FLAGS[key], required=flag.endswith("!"))
            if key in cmd.defaults:
                spec["default"] = cmd.defaults[key]
            sub.add_argument("--" + key, **spec)
    return parser


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
        return SUBCOMMANDS[args.command].handler(args)
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
