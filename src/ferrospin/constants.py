"""Central tolerances and desk-scale caps.

Single tuning point: every module imports its numeric tolerances from here
rather than hard-coding them at use sites.
"""

import math

# tolerances
STATIONARITY_TOL = 1e-10     # ||mu P - mu||_1 for every exact kernel
BALANCE_TOL = 1e-12          # entrywise detailed-balance check
PROB_SUM_TOL = 1e-12         # distribution tables / matrix rows sum to 1
REL_TOL = 1e-12              # generic relative comparisons (dual routes)
INEQUALITY_SLACK = 1e-9      # spectral / mixing inequality slack
POTENTIAL_SLACK = 1e-10      # dominance and decay-factor grid slack
SAW_ORACLE_TOL = 1e-9        # saw marginal vs brute force

# enumeration caps
VECTOR_LIMIT = 20            # 2^n probability vectors
MATRIX_LIMIT = 12            # dense 2^n x 2^n transition matrices
# Glauber lambda_2 by Lanczos from this many states, below it by a full
# eigvalsh.  Random Glauber kernels, min of 5 runs, 2-core Xeon, 2 BLAS
# threads: 256 states 4.1 ms eigvalsh against 5.1 ms Lanczos, 512 states
# 19 against 10 ms, 1024 states 120 against 22 ms.
LANCZOS_MIN_STATES = 512
BLOCK_ENUM_LIMIT = 20        # exact conditional resampling of one block
FIELD_KERNEL_LIMIT = 6       # exact field-dynamics kernel (3^n subset work)
SAW_DEPTH_CAP = 30           # verify_region: deeper walks mark it partial
REGION_NODE_CAP = 10**6      # walk-tree nodes per tree, growth or verification
MIXING_STEP_CAP = 10**6      # chain steps per run

# defaults
DEFAULT_EPS = 1.0 / (4.0 * math.e)

# fixed constants of the constructions and checks
REGION_C_D = 4.0             # RegionParams.from_n: d1 = ceil(this * ln ln n)
WILSON_Z = 2.5758293035489004  # two-sided 99% normal quantile
INFLUENCE_GROWTH_FACTOR = 1.5  # sweep: influence at 2m <= this * at m
INFLUENCE_STABILIZATION_TOL = 0.05  # sweep: top two sizes agree to this
DECAY_MIN_R_SQUARED = 0.9    # decay probe: least r^2 of the log-linear fit
