"""Fault injection for the meta-tests: copies of a law with one table
coefficient changed."""

from orient_duality.fgl import FGL


def with_flipped_coefficient(F: FGL, i: int, j: int, *, keep_log: bool = True, keep_kernels: bool = True) -> FGL:
    """A copy of ``F`` with the sign of a(i,j) flipped, optionally keeping
    derived caches from the original.  Kept caches are copied, so nothing
    the copy computes later reaches the original.  The formal inverse and the
    m-series derive from the table, so they are never kept.  Fundamental
    classes are kept with the logarithm (they are products of point
    classes), diagonal classes with the kernels they are built from.

    A consistent recomputation of a flipped *symmetric pair* can produce an
    isomorphic theory, so the interesting failures come from stale caches
    (kept logarithm or kernels) or from asymmetric tables, which the
    logarithm validation rejects.
    """
    coeffs = dict(F.coeffs)
    old = coeffs.get((i, j), F.ring.zero())
    coeffs[(i, j)] = -old
    mutated = FGL(F.ring, F.truncation, coeffs)
    if keep_log:
        mutated._log = F._log
        mutated._exp = F._exp
        mutated._pn = dict(F._pn)
        mutated._fundamental_cache = dict(F._fundamental_cache)
    if keep_kernels:
        mutated._kernel_cache = dict(F._kernel_cache)
        mutated._diagonal_cache = dict(F._diagonal_cache)
    return mutated
