"""Shared numeric defaults.

All comparisons in the package go through a single absolute tolerance.
The default is 1e-9; a space's tolerance is set once, on its Frame
(Frame(dec, metric, tol)), and the CLI sets it with --tolerance.
"""

DEFAULT_TOL = 1e-9

# Random sampling (route-equivalence spot checks, random unit pairs) is
# seeded so results are reproducible; the CLI exposes --seed.
DEFAULT_SEED = 1729

# Numerically extracted catalog data (matrix realizations) is compared
# at a slightly looser tolerance than hand-entered constants.
CATALOG_TOL = 1e-8


def tol_or_default(tol=None):
    return DEFAULT_TOL if tol is None else float(tol)


def seed_or_default(seed=None):
    return DEFAULT_SEED if seed is None else int(seed)
