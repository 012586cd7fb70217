"""Rebuild bench/refs.json from scratch: python3 bench/run.py --regen-refs

- the LP optimum of every recover-* pool instance and of the known-fault
  trials, keyed by a hash of (A, Y);
- the cov-sketch seed strata: pipelines whose first near-unpenalized
  solve_p2 inside solve_constrained runs to max_iter ("slow") and those
  whose first solve stops early ("fast").

It also runs every pool member once through the benchmark's checks and
prints the ones that fail, since a failing member would make the failed
share of a run depend on the seed.
"""

from __future__ import annotations

import json
import time

import numpy as np

import matsketch as ms
import workloads as w
from lpref import ReferenceStore, instance_key, reference_entry

COV_PER_STRATUM = 12
COV_CANDIDATES = 60


def first_solve_capped(A: np.ndarray, sz: np.ndarray) -> bool:
    """Whether solve_constrained's first solve (lam = 1e-8 * lam_hi) hits max_iter."""
    Y = 0.5 * (sz + sz.T)
    op = ms.SketchOperator(A=np.array(A, dtype=float), B=np.array(A, dtype=float), shared_ab=True)
    lam_lo = 2.0 * float(np.abs(op.adjoint(Y)).max()) * 1e-8
    return ms.solve_p2(op, Y, lam_lo).iterations >= ms.SolverOptions().max_iter


def main(path: str) -> int:
    t_start = time.perf_counter()
    lp = {}
    store = ReferenceStore("", "")  # empty: checks read the references built here
    trials = [cfg for tag, cells in (("above", w.ABOVE_CELLS), ("below", w.BELOW_CELLS))
              for cfgs, _ in w.pool_configs(tag, cells) for cfg in cfgs]
    trials += [ms.TrialConfig(p=p, m=m, d=4, seed=s) for p, m, s in w.KNOWN_FAULTS]
    for cfg in trials:
        op, X, Y = w.trial_instance(cfg)
        t = time.perf_counter()
        entry = reference_entry(op.A, Y, X)
        lp_s = time.perf_counter() - t
        lp[instance_key(op.A, Y)] = entry
        store.refs[instance_key(op.A, Y)] = entry
        t = time.perf_counter()
        problems = w.trial_problems(w.trial_steps(cfg), store)
        print(f"p={cfg.p} m={cfg.m} seed={cfg.seed} lp {lp_s:.2f}s admm {time.perf_counter() - t:.2f}s "
              f"{'; '.join(problems) or 'ok'}", flush=True)

    pool = {"slow": [], "fast": []}
    for t in range(COV_CANDIDATES):
        _, _, A, sz, _ = w.cov_inputs(w.cov_seed(t))
        stratum = pool["slow" if first_solve_capped(A, sz) else "fast"]
        if len(stratum) < COV_PER_STRATUM:
            stratum.append(t)
            problems = w.CovOp(w.cov_seed(t)).check(w.cov_pipeline(w.cov_seed(t)))
            print(f"cov t={t} {'slow' if stratum is pool['slow'] else 'fast'} "
                  f"{'; '.join(problems) or 'ok'}", flush=True)
        if all(len(v) == COV_PER_STRATUM for v in pool.values()):
            break

    with open(path, "w") as fh:
        json.dump({"lp": lp, "cov_pool": pool}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(lp)} LP references and {sum(map(len, pool.values()))} cov seeds "
          f"in {time.perf_counter() - t_start:.0f}s")
    return 0
