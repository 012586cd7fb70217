"""Recovery error grows linearly with the perturbation mass.

The planted matrix is perturbed by dense noise of a fixed l1 mass before
sketching; the table shows the recovered error tracking the noise level
with a small constant, and collapsing to exact recovery at zero noise.
"""

import numpy as np

from matsketch import SolverOptions, TrialConfig
from matsketch.harness import noise_sweep

cfg = TrialConfig(p=40, m=21, d=4, delta=4, seed=1)
scales = [0.0, 0.5, 1.0, 2.0]
# max_iter=1: one ADMM step, then the exact LP solves each noisy program
rows = noise_sweep(cfg, scales, trials=10, opts=SolverOptions(max_iter=1))

print("noise l1 mass   mean recovery error (l1)")
for s in scales:
    errs = [r.error_l1 for r in rows if r.scale == s]
    print(f"{s:<15} {np.mean(errs):.4f}")
