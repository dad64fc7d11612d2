"""Shared numeric defaults.

Every self-check in the package goes through one function,
errors.check(residual, bound, what, error): it passes when the residual
is at most the bound.  Each site forms its bound, mostly from a single
absolute tolerance and the scale of its data.  An algebra keeps the
tolerance it was built with (build_lie_algebra(..., tol),
load_algebra(path, tol)), and every algebra-level function checks at
it.  A space's tolerance is set once, on its Frame (Frame(dec, metric,
tol)).  The CLI sets both with --tolerance; the default is 1e-9.
"""

DEFAULT_TOL = 1e-9

# Random sampling (route-equivalence spot checks, random unit pairs) is
# seeded so results are reproducible; the CLI exposes --seed.
DEFAULT_SEED = 1729

# Numerically extracted catalog data (matrix realizations) is compared
# at a slightly looser tolerance than hand-entered constants.
CATALOG_TOL = 1e-8
