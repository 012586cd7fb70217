"""matsketch benchmark: one workload, one process, one JSON result line.

    python3 bench/run.py --workload recover-above --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --regen-refs

Run from the root of a source checkout; the library is imported from its
src/ directory. With --trace 0 the last line of standard output carries
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced
run. --regen-refs rebuilds bench/refs.json from scratch. See README.md.
"""

import time

T0 = time.perf_counter()  # process start, as near as the script can see it

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# single-threaded BLAS, fixed before numpy is first imported
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(BENCH, "refs.json")
OUT = os.path.join(BENCH, "out")
SETUP_REPS = 3


def import_library():
    """Import matsketch from this checkout's src/ only; exit 2 if it is not there."""
    if not os.path.isdir(os.path.join(SRC, "matsketch")):
        print(f"no matsketch sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import matsketch

    if os.path.dirname(os.path.dirname(os.path.abspath(matsketch.__file__))) != SRC:
        print(f"matsketch imported from {matsketch.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # reaped pool workers
    return max(own, children) / 1024.0


class Ledger:
    """Attempted and failed operations; a failure outside the known fault
    makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def run(self, op, timer=None):
        """Run op (through timer if given), check its output after the clock
        stops, and return the op's seconds, or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = timer(op.run) if timer else op.run()
        except Exception as exc:  # a library error is a failed operation, not a crash
            self.failed += 1
            self.unexpected.append((op.label(), [f"raised {exc!r}"]))
            return None
        dt = time.perf_counter() - t0
        problems = op.check(out)
        if problems:
            self.failed += 1
            if not op.known_fault:
                self.unexpected.append((op.label(), problems))
        return dt


def keep_going(work_s: float, round_s: list, seconds: float) -> bool:
    """Start another round while its expected midpoint falls inside the run;
    stop after a round in which no operation completed."""
    return round_s[-1] > 0 and work_s + statistics.mean(round_s) / 2.0 < seconds


def measure(wl, seconds: float, ledger: Ledger) -> list:
    times, round_s = [], []
    while True:
        spent = 0.0
        for op in wl.next_round():
            dt = ledger.run(op)
            if dt is not None:
                times.append(dt)
                spent += dt
        round_s.append(spent)
        if not keep_going(sum(times), round_s, seconds):
            return times


def measure_traced(wl, seconds: float, ledger: Ledger, tracer, grid: bool) -> dict:
    """Each round runs untraced and then traced on the same inputs; on
    phase-grid the untraced call at the workload's worker count comes first
    and both compared calls run in-process (threads=1)."""
    from workloads import GridOp

    plain, traced, round_s, grid_wall, grid_cells = [], [], [], [], []

    def traced_call(fn):
        tracer.install()
        try:
            return tracer.span(fn)
        finally:
            tracer.uninstall()

    while True:
        spent = 0.0
        for op in wl.next_round():
            if grid:
                wall = ledger.run(op)
                op = GridOp(op.master_seed, threads=1)
            a = ledger.run(op)
            first_span = len(tracer.span_name)
            b = ledger.run(op, timer=traced_call)
            if a is None or b is None or (grid and wall is None):
                continue
            plain.append(a)
            traced.append(b)
            spent += b
            if grid:
                grid_wall.append(wall)
                # traced cell times, scaled back by this call's own overhead
                grid_cells.append({c: t * a / b for c, t in tracer.cell_times(first_span).items()})
        round_s.append(spent)
        if not keep_going(sum(traced), round_s, seconds):
            return {"plain": plain, "traced": traced, "grid_wall": grid_wall, "grid_cells": grid_cells}


# (name, unit, better); "/op" values are per traced operation
PER_LAYER = [
    ("ensemble.screen_s", "s/op", "lower"),
    ("ensemble.screen_draws_per_graph", "count/graph", "lower"),
    ("ensemble.instance_s", "s/op", "lower"),
    ("ensemble.self_s", "s/op", "lower"),
    ("operator.forward_calls", "count/op", "lower"),
    ("operator.adjoint_calls", "count/op", "lower"),
    ("operator.forward_s", "s/op", "lower"),
    ("operator.adjoint_s", "s/op", "lower"),
    ("operator.self_s", "s/op", "lower"),
    ("solver.projector_init_s", "s/op", "lower"),
    ("solver.project_calls", "count/op", "lower"),
    ("solver.project_self_s", "s/op", "lower"),
    ("solver.soft_threshold_s", "s/op", "lower"),
    ("solver.p1_self_s", "s/op", "lower"),
    ("solver.admm_iters", "count/op", "lower"),
    ("solver.admm_max_iter_hits", "count/op", "lower"),
    ("solver.snap_calls", "count/op", "lower"),
    ("solver.snap_s", "s/op", "lower"),
    ("solver.snap_end_ratio", "ratio", "higher"),
    ("solver.p2_calls", "count/op", "lower"),
    ("solver.p2_s", "s/op", "lower"),
    ("solver.fista_iters", "count/op", "lower"),
    ("solver.first_p2_s", "s/op", "lower"),
    ("solver.power_iter_s", "s/op", "lower"),
    ("solver.p2_per_constrained", "count/solve", "lower"),
    ("solver.self_s", "s/op", "lower"),
    ("pipelines.stream_init_s", "s/op", "lower"),
    ("pipelines.cov_sketch_s", "s/op", "lower"),
    ("pipelines.samples_per_s", "1/s", "higher"),
    ("pipelines.recover_s", "s/op", "lower"),
    ("pipelines.self_s", "s/op", "lower"),
    ("harness.trial_s", "s/trial", "lower"),
    ("harness.cell_busy_s", "s/op", "lower"),
    ("harness.pool_efficiency", "ratio", "higher"),
    ("harness.slowest_cell_share", "ratio", "lower"),
    ("harness.self_s", "s/op", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
]


def layer_metrics(tracer, run: dict, workers: int) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    from tracer import LAYERS

    s = tracer.summary()
    inc, own, calls, layer = s["incl"], s["self"], s["calls"], s["layer_self"]
    n = max(len(run["traced"]), 1)

    def ratio(a, b):
        return a / b if b else 0.0

    constrained = calls.get("solver.solve_constrained", 0)
    busy = [sum(c.values()) for c in run["grid_cells"]]
    slowest = [max(c.values(), default=0.0) for c in run["grid_cells"]]
    per_op = {
        "ensemble.screen_s": inc.get("ensemble.gen_screened_graph", 0.0),
        "ensemble.instance_s": (inc.get("ensemble.gen_distributed_support", 0.0)
                                + inc.get("ensemble.gen_distributed_matrix", 0.0)),
        "operator.forward_calls": calls.get("SketchOperator.forward", 0),
        "operator.adjoint_calls": calls.get("SketchOperator.adjoint", 0),
        "operator.forward_s": inc.get("SketchOperator.forward", 0.0),
        "operator.adjoint_s": inc.get("SketchOperator.adjoint", 0.0),
        "solver.projector_init_s": inc.get("AffineProjector.__init__", 0.0),
        "solver.project_calls": calls.get("AffineProjector.project", 0),
        "solver.project_self_s": own.get("AffineProjector.project", 0.0),
        "solver.soft_threshold_s": inc.get("solver.soft_threshold", 0.0),
        "solver.p1_self_s": own.get("solver.solve_p1", 0.0),
        "solver.admm_iters": tracer.admm_iters,
        "solver.admm_max_iter_hits": tracer.admm_max_iter_hits,
        "solver.snap_calls": calls.get("solver._refine_on_support", 0),
        "solver.snap_s": inc.get("solver._refine_on_support", 0.0),
        "solver.p2_calls": calls.get("solver.solve_p2", 0),
        "solver.p2_s": inc.get("solver.solve_p2", 0.0),
        "solver.fista_iters": tracer.fista_iters,
        "solver.first_p2_s": s["first_p2_s"],
        "solver.power_iter_s": inc.get("solver._operator_sq_norm", 0.0),
        "pipelines.stream_init_s": inc.get("SampleStream.__post_init__", 0.0),
        "pipelines.cov_sketch_s": inc.get("pipelines.cov_sketch", 0.0),
        "pipelines.recover_s": inc.get("pipelines.recover_covariance", 0.0),
        "harness.cell_busy_s": sum(busy),
    }
    for name in LAYERS:
        per_op[name + ".self_s"] = layer[name]
    values = {k: v / n for k, v in per_op.items()}
    values.update({
        "ensemble.screen_draws_per_graph": ratio(s["screen_draws"], calls.get("ensemble.gen_screened_graph", 0)),
        "solver.snap_end_ratio": ratio(tracer.snaps_used, calls.get("solver._refine_on_support", 0)),
        "solver.p2_per_constrained": ratio(s["p2_in_constrained"] - constrained, constrained),
        "pipelines.samples_per_s": ratio(tracer.samples, inc.get("pipelines.cov_sketch", 0.0)),
        "harness.trial_s": ratio(inc.get("harness.run_trial", 0.0), calls.get("harness.run_trial", 0)),
        "harness.pool_efficiency": ratio(sum(busy), workers * sum(run["grid_wall"])),
        "harness.slowest_cell_share": ratio(sum(slowest), sum(run["grid_wall"])),
        "trace.overhead": ratio(sum(run["traced"]), sum(run["plain"])) - 1.0,
        "trace.coverage": ratio(s["op_wall"] - layer["bench"], s["op_wall"]),
    })
    return {name: (float(values[name]), unit) for name, unit, _ in PER_LAYER}


def result_line(ledger: Ledger, metrics: dict) -> str:
    return json.dumps({
        "correct": not ledger.unexpected,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def report(ledger: Ledger, metrics: dict) -> None:
    for label, problems in ledger.unexpected:
        print(f"FAILED {label}: {'; '.join(problems)}")
    print(f"attempted {ledger.attempted}, failed {ledger.failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(result_line(ledger, metrics))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-refs", action="store_true",
                    help="rebuild bench/refs.json from scratch and exit")
    args = ap.parse_args(argv)

    import_library()
    import lpref
    import workloads

    if args.regen_refs:
        import regen

        return regen.main(REFS)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    import_s = time.perf_counter() - T0

    reps = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        refs = lpref.ReferenceStore(REFS, os.path.join(OUT, "refs-local.json"))
        wl = workloads.WORKLOADS[args.workload](args.seed, refs)
        wl.warm_up()
        reps.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(reps)

    ledger = Ledger()
    if args.trace == 0:
        times = measure(wl, args.seconds, ledger)
        if not times:
            report(ledger, {})
            return 1
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "op_p50_s": (statistics.median(times), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        if len(times) >= 200:  # a p95 needs at least ten samples above it
            print(f"op_p95_s {statistics.quantiles(times, n=20)[-1]:.6g} s over {len(times)} operations")
    else:
        from tracer import Tracer

        tracer = Tracer()
        run = measure_traced(wl, args.seconds, ledger, tracer, args.workload == "phase-grid")
        if not run["traced"]:
            report(ledger, {})
            return 1
        metrics = layer_metrics(tracer, run, workloads.GRID_WORKERS)
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(OUT, f"trace-{args.workload}-{args.seed}")
        import numpy as np

        np.savez_compressed(stem + ".npz", **tracer.spans())
        with open(stem + ".json", "w") as fh:
            json.dump({"absent": tracer.absent, "plain_s": run["plain"], "traced_s": run["traced"],
                       "metrics": {k: v for k, (v, _) in metrics.items()}}, fh, indent=1)
        if tracer.absent:
            print("absent (not wrapped, their metrics read 0): " + ", ".join(tracer.absent))
    refs.save_local()
    report(ledger, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
