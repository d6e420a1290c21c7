"""Central table of numeric defaults (one place, so batch runs reproduce).

===================  =======  ==================================================
name                 value    used by
===================  =======  ==================================================
GRID_SIZE            1024     torus sampling grids (unitarity, quadrature checks)
TOL                  1e-9     verification tolerance on those grids
J_LEVEL              10       dyadic grid level for cascade iterations
ITERS                12       cascade iteration budget
CASCADE_TOL          1e-6     successive-difference threshold for convergence
N_MAX                10**4    periodization fallback truncation (the sum is
                              only taken when the exact periodization from the
                              transfer fixed space cannot be certified)
K_TERMS              40       factors kept in the infinite-product transform
PF_TOL               1e-7     peripheral-spectrum tolerance
MAX_J                16       largest cascade --j
MAX_ITERS            1000     largest cascade --iters
MAX_DEPTH            12       largest packets depth, from --depth or a partition
                              file (and at most 2**12 leaves)
MAX_LEVELS           32       largest pyramid --levels
MAX_GRID             2**16    largest --grid (design, verify)
MAX_BANKS            10**4    largest verify --random-banks
MAX_SAMPLES          2**22    largest index spread (hi - lo + 1) of a signal CSV
MAX_TRANSFER_DEGREE  128      largest degree D of W = |m0|^2 (the span of m0)
                              for transfer, whose eig and SVD cost O(D^3)
MAX_N_MAX            10**5    largest transfer --n-max (the fallback sum costs
                              O(n_max))
===================  =======  ==================================================

The MAX_* rows bound CLI options and inputs before anything is allocated: a
value outside 0..MAX (1..MAX for --depth, --levels, --grid and --iters) exits
2.  --n-max is bounded above only: per_check refuses n_max < 1, and an n_max
whose tail estimate is too large, with its own message.
"""

GRID_SIZE = 1024
TOL = 1e-9
J_LEVEL = 10
ITERS = 12
CASCADE_TOL = 1e-6
N_MAX = 10**4
K_TERMS = 40
PF_TOL = 1e-7
MAX_J = 16
MAX_ITERS = 1000
MAX_DEPTH = 12
MAX_LEVELS = 32
MAX_GRID = 2**16
MAX_BANKS = 10**4
MAX_SAMPLES = 2**22
MAX_TRANSFER_DEGREE = 128
MAX_N_MAX = 10**5
