"""Shared numeric defaults.

Every self-check in the package goes through one function,
errors.check(residual, bound, what, error): it passes when the residual
is at most the bound.  Each site forms its bound, mostly from a single
absolute tolerance and the scale of its data.  A tolerance is passed in
only where an algebra or a Frame is built.  An algebra keeps the
tolerance it was built with (build_lie_algebra(..., tol),
from_tensor(..., tol), load_algebra(path, tol)), and every check on its
brackets reads it, reductivity of a splitting included.  A space's
tolerance is set once, on its Frame (Frame(dec, metric, tol)), and every
decision on the space reads it: ad_k invariance, the class booleans
(ClassificationReport.tol records it) and the checks behind them.
load_space passes its tolerance to the algebra it builds, and run_all
its own to every Frame it builds.  The CLI sets both with --tolerance.
DEFAULT_TOL is the one default: every algebra, space and catalog entry
built without a tolerance is built at it.
"""

DEFAULT_TOL = 1e-9

# Random sampling (route-equivalence spot checks, random unit pairs) is
# seeded so results are reproducible; the CLI exposes --seed.
DEFAULT_SEED = 1729
