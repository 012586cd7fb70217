"""Experiment orchestration: seeded recovery trials, phase diagrams with
CSV/SVG output, and noise sweeps. Per-trial seeds are derived by hashing
the master seed with the cell coordinates, so grids are reproducible under
partial and parallel re-runs.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict

import numpy as np
import scipy

from .ensemble import (
    ParameterError,
    default_delta,
    gen_distributed_matrix,
    gen_distributed_support,
    gen_screened_graph,
)
from .operator import SketchOperator
from .solver import SolverOptions, solve_p1, solve_p2, solve_constrained

#: reference phase-boundary constant: the curve p = m^2 / 14
PHASE_CURVE_CONSTANT = 14.0


def derive_seed(master_seed: int, *tags) -> int:
    """Stable 63-bit seed from a master seed and arbitrary tags."""
    text = ":".join([str(master_seed)] + [str(t) for t in tags])
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass(frozen=True)
class TrialConfig:
    p: int
    m: int
    d: int
    delta: int | None = None
    seed: int = 0
    mode: str = "p1"  # p1 | p2 | constrained
    value_spec: tuple | str = ("gaussian", 0.0, 1.0)
    success_threshold: float = 1e-4  # l-infinity tolerance for "exact"
    lam: float = 1e-3  # p2 penalty
    kappa: float = 0.0  # constrained-mode radius
    clip_binary: bool = False
    off_cells: int | None = None  # off-diagonal support cells per trial

    def __post_init__(self):
        if self.p < 1 or self.m < 1 or self.d < 1:
            raise ParameterError("dimensions must be positive")
        if self.success_threshold <= 0:
            raise ParameterError("success_threshold must be positive")
        if self.mode not in ("p1", "p2", "constrained"):
            raise ParameterError(f"unknown mode {self.mode!r}")

    @property
    def effective_delta(self) -> int:
        return self.delta if self.delta is not None else default_delta(self.p)

    @property
    def effective_off_cells(self) -> int:
        """Off-diagonal cell count used when none is given: 0.3*p, rounded.

        Keeps the planted matrix in the regime where the m^2 sketch
        equations can determine it; filling every row to d cells puts the
        reference experiment sizes past the l1 capacity of the sketch.
        """
        if self.off_cells is not None:
            return self.off_cells
        return int(round(0.3 * self.p))


@dataclass
class TrialRecord:
    config: TrialConfig
    success: bool
    linf_error: float
    l1_error: float
    objective: float
    feas_residual: float
    iterations: int
    converged: bool

    def to_json(self) -> str:
        payload = asdict(self)
        payload["config"]["value_spec"] = list(np.atleast_1d(self.config.value_spec))
        return json.dumps(payload, indent=2, sort_keys=True, default=str)


def _planted_instance(cfg: TrialConfig, seed: int) -> tuple:
    """The operator (B = A) and planted matrix X that cfg draws at seed."""
    g = gen_screened_graph(cfg.p, cfg.m, cfg.effective_delta, derive_seed(seed, "graph"))
    op = SketchOperator.from_graphs(g, clip_binary=cfg.clip_binary)
    support = gen_distributed_support(
        cfg.p, cfg.d, derive_seed(seed, "support"), n_off=cfg.effective_off_cells
    )
    X = gen_distributed_matrix(support, cfg.value_spec, derive_seed(seed, "values"))
    return op, X


def run_trial(cfg: TrialConfig, opts: SolverOptions = SolverOptions()) -> TrialRecord:
    """One seeded generate-sketch-recover experiment (B = A)."""
    op, X = _planted_instance(cfg, cfg.seed)
    Y = op.forward(X)
    if cfg.mode == "p1":
        res = solve_p1(op, Y, opts)
    elif cfg.mode == "p2":
        res = solve_p2(op, Y, cfg.lam, opts)
    else:
        res = solve_constrained(op, Y, cfg.kappa, opts)
    linf = float(np.abs(res.x - X).max())
    l1 = float(np.abs(res.x - X).sum())
    return TrialRecord(
        config=cfg,
        success=res.converged and linf <= cfg.success_threshold,
        linf_error=linf,
        l1_error=l1,
        objective=res.objective,
        feas_residual=res.feas_residual,
        iterations=res.iterations,
        converged=res.converged,
    )


@dataclass
class PhaseGrid:
    p_values: list
    m_values: list
    success_rate: np.ndarray  # len(p_values) x len(m_values), fractions
    trials_per_cell: int

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("p,m,rate\n")
            for i, p in enumerate(self.p_values):
                for j, m in enumerate(self.m_values):
                    fh.write(f"{p},{m},{self.success_rate[i, j]:.6f}\n")

    def m50(self, p: int) -> float | None:
        """Sketch size at which the success rate first crosses 1/2 for this
        p, linearly interpolated between bracketing grid columns."""
        i = self.p_values.index(p)
        row = self.success_rate[i]
        ms = self.m_values
        for j, rate in enumerate(row):
            if rate >= 0.5:
                if j == 0 or row[j - 1] >= 0.5:
                    return float(ms[j])
                lo, hi = row[j - 1], rate
                frac = (0.5 - lo) / (hi - lo)
                return float(ms[j - 1] + frac * (ms[j] - ms[j - 1]))
        return None


def _cell_successes(args) -> tuple:
    p, m, d, delta, trials, master_seed = args
    wins = 0
    for t in range(trials):
        cfg = TrialConfig(p=p, m=m, d=d, delta=delta, seed=derive_seed(master_seed, p, m, t))
        if run_trial(cfg).success:
            wins += 1
    return p, m, wins


def _vendored_openblas():
    """(library, symbol suffix) for each OpenBLAS copy that the numpy and
    scipy wheels vendor and that is present: numpy's exports its symbols
    with the suffix 64_, scipy's (which LAPACK calls such as gelsy use)
    without one."""
    for package, suffix in ((np, "64_"), (scipy, "")):
        libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                            package.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
            yield ctypes.CDLL(path), suffix


def _one_blas_thread() -> None:
    """Pool initializer: one thread in each vendored OpenBLAS, so that the
    workers do not oversubscribe the cores between them. The parent keeps
    its own thread count."""
    for lib, suffix in _vendored_openblas():
        setter = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
        if setter is not None:
            setter(1)


def _pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread)


def worker_count(threads: int | None = None) -> int:
    """threads, else SKETCH_THREADS, else the CPU count; a count that is
    not an integer of at least 1 raises ParameterError."""
    if threads is None:
        env = os.environ.get("SKETCH_THREADS")
        if not env:
            return os.cpu_count() or 1
        try:
            threads = int(env)
        except ValueError:
            raise ParameterError(f"SKETCH_THREADS={env!r} is not an integer") from None
    if threads < 1:
        raise ParameterError(f"worker count {threads} must be >= 1")
    return threads


def phase_diagram(
    p_values,
    m_values,
    trials: int,
    d: int,
    master_seed: int,
    delta: int | None = None,
    threads: int | None = None,
) -> PhaseGrid:
    """Per-cell recovery success fraction over seeded trials.

    Cells are independent and run on a process pool whose workers each run
    one BLAS thread; results do not depend on the worker count because
    every trial seed is derived from (master_seed, p, m, trial index).
    """
    p_values = list(p_values)
    m_values = list(m_values)
    if p_values != sorted(p_values) or m_values != sorted(m_values):
        raise ParameterError("value lists must be ascending")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    jobs = [(p, m, d, delta, trials, master_seed) for p in p_values for m in m_values]
    rate = np.zeros((len(p_values), len(m_values)))
    workers = worker_count(threads)
    if workers == 1:
        results = map(_cell_successes, jobs)
    else:
        with _pool(workers) as pool:
            results = list(pool.map(_cell_successes, jobs, chunksize=4))
    for p, m, wins in results:
        rate[p_values.index(p), m_values.index(m)] = wins / trials
    return PhaseGrid(
        p_values=p_values,
        m_values=m_values,
        success_rate=rate,
        trials_per_cell=trials,
    )


def paper_grid() -> tuple:
    """The reference experiment grid: p in {10..60} step 2, m in {2..60} step 2."""
    return list(range(10, 61, 2)), list(range(2, 61, 2))


def reduced_grid() -> tuple:
    """Coarse CI grid: step 10 in both directions."""
    return list(range(10, 61, 10)), list(range(2, 61, 10))


def render_phase_svg(grid: PhaseGrid) -> str:
    """Deterministic heatmap of 10-pixel squares, one per cell, with the
    reference curve p = m^2/14 overlaid in red. White cells are all-success."""
    cell = 10
    ms = grid.m_values
    ps = grid.p_values
    width = len(ms) * cell
    height = len(ps) * cell
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for i in range(len(ps)):
        for j in range(len(ms)):
            shade = int(round(255 * grid.success_rate[i, j]))
            lines.append(
                f'<rect x="{j * cell}" y="{i * cell}" width="{cell}" height="{cell}" '
                f'fill="rgb({shade},{shade},{shade})"/>'
            )
    # reference curve, mapped through cell-center coordinates
    pts = []
    for k in range(201):
        m = ms[0] + (ms[-1] - ms[0]) * k / 200.0
        p = m * m / PHASE_CURVE_CONSTANT
        if ps[0] <= p <= ps[-1]:
            x = (np.interp(m, ms, np.arange(len(ms))) + 0.5) * cell
            y = (np.interp(p, ps, np.arange(len(ps))) + 0.5) * cell
            pts.append(f"{x:.2f},{y:.2f}")
    if len(pts) >= 2:
        lines.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="red" stroke-width="1.5"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


@dataclass
class NoiseSweepRow:
    scale: float
    trial: int
    noise_l1: float
    error_l1: float
    linf_error: float


def noise_sweep(
    cfg: TrialConfig,
    noise_scales,
    trials: int = 20,
    opts: SolverOptions = SolverOptions(),
) -> list:
    """Recovery error against perturbation mass.

    For each scale s, the planted matrix is perturbed by a dense Gaussian
    noise matrix rescaled to l1 mass s, the perturbed matrix is sketched,
    and the equality program is solved against the noisy sketch.
    """
    scales = list(noise_scales)
    if any(s < 0 for s in scales) or scales != sorted(scales):
        raise ParameterError("noise scales must be nonnegative and ascending")
    rows = []
    for t in range(trials):
        seed = derive_seed(cfg.seed, "noise-trial", t)
        op, X = _planted_instance(cfg, seed)
        rng = np.random.default_rng(derive_seed(seed, "perturbation"))
        N_dir = rng.standard_normal((cfg.p, cfg.p))
        N_dir /= np.abs(N_dir).sum()
        for s in scales:
            N = s * N_dir
            res = solve_p1(op, op.forward(X + N), opts)
            rows.append(
                NoiseSweepRow(
                    scale=float(s),
                    trial=t,
                    noise_l1=float(np.abs(N).sum()),
                    error_l1=float(np.abs(res.x - X).sum()),
                    linf_error=float(np.abs(res.x - X).max()),
                )
            )
    return rows


def noise_sweep_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write("scale,trial,noise_l1,error_l1,linf_error\n")
        for r in rows:
            fh.write(
                f"{r.scale:.10g},{r.trial},{r.noise_l1:.10g},"
                f"{r.error_l1:.10g},{r.linf_error:.10g}\n"
            )
