"""The benchmark's four workloads: their inputs, operations and output checks.

Every operation is a call sequence into matsketch's public API. Its output
is checked after its timer stops, against the independent LP (lpref) or
against properties the method guarantees. Inputs come from the workload
seed only; see README.md for the make-up of each workload.
"""

from __future__ import annotations

import numpy as np

import matsketch as ms

POOL_MASTER = 6544  # master seed of the recover-* instance pools and the cov-sketch pool
SUCCESS_THRESHOLD = 1e-4  # TrialConfig's l-infinity tolerance for "exact"
OBJ_GAP = 1e-6  # converged solves must reach the LP optimum to this relative gap
FEAS_TOL = 1e-8

# recover-above: (p, m, delta, pool size, draws per round); criterion 1's cell
# and a larger cell, both far enough above m = sqrt(14 p) that ADMM stops at a
# snap checkpoint (iteration 250 or 500)
ABOVE_CELLS = [(40, 21, 4, 48, 4), (60, 32, None, 24, 4)]
# recover-below: at p=40, m=8 every trial measured runs to max_iter, and
# their times differ by 7% (one standard deviation), so a round costs about
# the same whichever instances it draws. At p=50-60, m=10-12 and p=20-30,
# m=10-12 some trials stop early, a few of them at the false-converged
# fault below.
BELOW_CELLS = [(40, 8, None, 16, 3)]
# pool instances left out because the program fails on them; a failure
# that depends on which pool members a seed draws would make the failed
# share of a run depend on the seed (see README.md)
LEFT_OUT = {
    # p=40 m=21: solve_p1 runs to max_iter and ends 3.5e-4 above the l1
    # optimum, so it reports "not recovered" where the LP recovers X exactly
    851607014713991482,
}
# the two trials on which solve_p1 reports converged=True at a vertex that
# is not the l1 minimizer; they do not depend on the workload seed
KNOWN_FAULTS = [(60, 12, ms.derive_seed(7, "b", 60, 12, 2)), (40, 16, ms.derive_seed(7, "b", 40, 16, 2))]

# phase-grid: below (m=10) and well above the boundary for both p; four m
# values per row so that chunksize=4 hands one row to each of the two
# workers. The p=40 row, whose m=10 trials always run to max_iter, is the
# longer one, so an early stop in the p=20 row does not change a call's time.
GRID_P = [20, 40]
GRID_M = [10, 32, 42, 52]
GRID_TRIALS = 1
GRID_WORKERS = 2

# cov-sketch: the criterion-10 pipeline
COV_P, COV_D, COV_PAIRS, COV_N, COV_M, COV_DELTA = 40, 4, 6, 2100, 21, 4
COV_SLOW_PER_ROUND, COV_FAST_PER_ROUND = 2, 1


class Cycle:
    """Visits a pool in seeded random order, reshuffling after each pass."""

    def __init__(self, items, rng: np.random.Generator):
        self.items = list(items)
        self.rng = rng
        self.order = []

    def take(self, k: int) -> list:
        out = []
        while len(out) < k:
            if not self.order:
                self.order = [int(i) for i in self.rng.permutation(len(self.items))]
            out.append(self.items[self.order.pop()])
        return out


# --- recover-above / recover-below -------------------------------------------


def trial_instance(cfg: ms.TrialConfig):
    """Steps 1-4 of harness.run_trial through public calls: (operator, X, Y)."""
    g = ms.gen_screened_graph(cfg.p, cfg.m, cfg.effective_delta, ms.derive_seed(cfg.seed, "graph"))
    op = ms.SketchOperator.from_graphs(g)
    support = ms.gen_distributed_support(
        cfg.p, cfg.d, ms.derive_seed(cfg.seed, "support"), n_off=cfg.effective_off_cells
    )
    X = ms.gen_distributed_matrix(support, cfg.value_spec, ms.derive_seed(cfg.seed, "values"))
    return op, X, op.forward(X)


def trial_steps(cfg: ms.TrialConfig):
    """All of harness.run_trial's steps; returns what the checks need."""
    op, X, Y = trial_instance(cfg)
    return op.A, X, Y, ms.solve_p1(op, Y)


def trial_problems(out, refs) -> list:
    A, X, Y, res = out
    ref = refs.get(A, Y, X)
    problems = []
    success = res.converged and float(np.abs(res.x - X).max()) <= SUCCESS_THRESHOLD
    if success != (ref["linf"] <= SUCCESS_THRESHOLD):
        problems.append("verdict differs from the LP")
    if res.converged and res.objective - ref["obj"] > OBJ_GAP * max(1.0, ref["obj"]):
        problems.append(f"converged at objective {res.objective!r} above the LP optimum {ref['obj']!r}")
    if res.feas_residual > FEAS_TOL:
        problems.append(f"feasibility residual {res.feas_residual:.3e}")
    return problems


class TrialOp:
    def __init__(self, cfg: ms.TrialConfig, refs, known_fault: bool = False):
        self.cfg = cfg
        self.refs = refs
        self.known_fault = known_fault

    def run(self):
        return trial_steps(self.cfg)

    def check(self, out) -> list:
        return trial_problems(out, self.refs)

    def label(self) -> str:
        return f"trial p={self.cfg.p} m={self.cfg.m} seed={self.cfg.seed}"


def pool_configs(tag: str, cells) -> list:
    """[(cfg list, draws per round)] for each cell's fixed instance pool."""
    pools = []
    for p, m, delta, size, per_round in cells:
        seeds = [ms.derive_seed(POOL_MASTER, tag, p, m, t) for t in range(size)]
        cfgs = [ms.TrialConfig(p=p, m=m, d=4, delta=delta, seed=s) for s in seeds if s not in LEFT_OUT]
        pools.append((cfgs, per_round))
    return pools


class RecoverWorkload:
    """Rounds of seeded trials drawn from per-cell pools whose LP optima are
    kept in refs.json; recover-below adds the known-fault trials to every
    round."""

    def __init__(self, seed: int, refs, tag: str, cells, faults=()):
        rng = np.random.default_rng(seed)
        self.refs = refs
        self.cycles = [(Cycle(cfgs, rng), k) for cfgs, k in pool_configs(tag, cells)]
        self.fixed = [TrialOp(ms.TrialConfig(p=p, m=m, d=4, seed=s), refs, known_fault=True)
                      for p, m, s in faults]

    def warm_up(self) -> None:
        # the known-fault trials stop at iteration 1000 or 2500, far sooner than
        # a capped pool member
        trial_steps(self.fixed[0].cfg if self.fixed else self.cycles[0][0].items[0])

    def next_round(self) -> list:
        ops = list(self.fixed)
        for cycle, k in self.cycles:
            ops += [TrialOp(cfg, self.refs) for cfg in cycle.take(k)]
        return ops


def above(seed, refs):
    return RecoverWorkload(seed, refs, "above", ABOVE_CELLS)


def below(seed, refs):
    return RecoverWorkload(seed, refs, "below", BELOW_CELLS, KNOWN_FAULTS)


# --- phase-grid ------------------------------------------------------------


class GridOp:
    def __init__(self, master_seed: int, threads: int = GRID_WORKERS):
        self.master_seed = master_seed
        self.threads = threads
        self.known_fault = False

    def run(self):
        return ms.phase_diagram(GRID_P, GRID_M, GRID_TRIALS, 4, self.master_seed, threads=self.threads)

    def check(self, grid) -> list:
        problems = []
        scaled = grid.success_rate * GRID_TRIALS
        if not np.allclose(scaled, np.round(scaled), rtol=0, atol=1e-9):
            problems.append("a rate is not a multiple of 1/trials")
        for p in GRID_P:
            m50 = grid.m50(p)
            lo, hi = np.sqrt(14.0 * p) / 2.0, 2.0 * np.sqrt(14.0 * p)
            if m50 is None or not lo <= m50 <= hi:
                problems.append(f"p={p}: m50={m50} outside [{lo:.2f}, {hi:.2f}]")
        return problems

    def label(self) -> str:
        return f"phase_diagram master_seed={self.master_seed} threads={self.threads}"


class GridWorkload:
    """One phase_diagram call per round, each with its own master seed."""

    def __init__(self, seed: int, refs=None):
        self.seed = seed
        self.calls = 0

    def warm_up(self) -> None:
        ms.phase_diagram([GRID_P[0]], [GRID_M[-1]], 1, 4, ms.derive_seed(self.seed, "warm-up"),
                         threads=GRID_WORKERS)

    def next_round(self) -> list:
        self.calls += 1
        return [GridOp(ms.derive_seed(self.seed, "phase-grid", self.calls))]


# --- cov-sketch --------------------------------------------------------------


def cov_inputs(seed: int, n: int = COV_N):
    """Covariance, sample stream, screened sketching matrix, sketch and kappa."""
    sigma = ms.gen_distributed_covariance(COV_P, COV_D, ms.derive_seed(seed, "sigma"), n_pairs=COV_PAIRS)
    stream = ms.SampleStream(sigma=sigma, n=n, seed=ms.derive_seed(seed, "stream"))
    A = ms.gen_screened_graph(COV_P, COV_M, COV_DELTA, ms.derive_seed(seed, "graph")).adjacency()
    sz = ms.cov_sketch(stream, A)
    kappa = float(np.linalg.norm(sz - A @ sigma @ A.T))
    return sigma, stream, A, sz, kappa


def cov_pipeline(seed: int, n: int = COV_N, opts: ms.SolverOptions = ms.SolverOptions()):
    sigma, stream, A, sz, kappa = cov_inputs(seed, n)
    return sigma, stream, A, sz, kappa, ms.recover_covariance(A, sz, "constrained", kappa=kappa, opts=opts)


class CovOp:
    def __init__(self, seed: int):
        self.seed = seed
        self.known_fault = False

    def run(self):
        return cov_pipeline(self.seed)

    def check(self, out) -> list:
        sigma, stream, A, sz, kappa, res = out
        S = np.array(list(stream.samples()))
        C = S.T @ S / stream.n  # one-shot sample covariance
        problems = []
        dev = np.linalg.norm(sz - A @ C @ A.T) / np.linalg.norm(sz)
        if dev > 1e-9:
            problems.append(f"cov_sketch differs from A C A^T by {dev:.2e} relative")
        r = float(np.linalg.norm(A @ res.x @ A.T - sz))
        if r > 1.01 * kappa:
            problems.append(f"residual {r:.4g} > 1.01 kappa = {1.01 * kappa:.4g}")
        if np.abs(res.x).sum() > np.abs(sigma).sum():
            problems.append("l1 norm above that of the feasible Sigma")
        rel = np.abs(res.x - sigma).sum() / np.abs(sigma).sum()
        if rel > 0.5:
            problems.append(f"relative l1 error {rel:.3f} > 0.5")
        return problems

    def label(self) -> str:
        return f"cov pipeline seed={self.seed}"


def cov_seed(t: int) -> int:
    return ms.derive_seed(POOL_MASTER, "cov", t)


class CovWorkload:
    """Rounds of covariance pipelines: COV_SLOW_PER_ROUND whose first
    near-unpenalized solve runs to max_iter and COV_FAST_PER_ROUND whose
    first solve stops early, drawn from the two strata in refs.json."""

    def __init__(self, seed: int, refs):
        rng = np.random.default_rng(seed)
        self.slow = Cycle(refs.cov_pool["slow"], rng)
        self.fast = Cycle(refs.cov_pool["fast"], rng)

    def warm_up(self) -> None:
        cov_pipeline(cov_seed(0), n=100, opts=ms.SolverOptions(max_iter=200))

    def next_round(self) -> list:
        picks = self.slow.take(COV_SLOW_PER_ROUND) + self.fast.take(COV_FAST_PER_ROUND)
        return [CovOp(cov_seed(t)) for t in picks]


WORKLOADS = {
    "recover-above": above,
    "recover-below": below,
    "phase-grid": GridWorkload,
    "cov-sketch": CovWorkload,
}
