"""Fault injection for the meta-tests: copies of a law with one table
coefficient changed."""

from orient_duality.fgl import FGL

# the kinds of derived data (``FGL.derived``) a mutant may keep: those that
# follow from the logarithm, and those built from the diagonal kernels
LOG_KINDS = ("log", "exp", "pn_class", "fundamental_class")
KERNEL_KINDS = ("kernel", "diagonal_class")


def with_flipped_coefficient(F: FGL, i: int, j: int, *, keep_log: bool = True, keep_kernels: bool = True) -> FGL:
    """A copy of ``F`` with the sign of a(i,j) flipped, optionally keeping
    derived data from the original by kind.  The kept entries are copied
    into a memo of the copy's own, so nothing the copy computes later
    reaches the original.  The formal inverse, the m-series, the log
    identity, the axiom witness and the verdicts of V1, V13 and V14
    (``"v1"``, ``"v13"``, ``"v14"``) derive from the table, so they are
    never kept.  Fundamental classes are kept with
    the logarithm (they are cross products of the classes [P^n], which
    read the point classes); so are the fibre classes [Y] that projections
    read, being fundamental classes too.  Diagonal classes are kept with
    the kernels they are built from.

    A consistent recomputation of a flipped *symmetric pair* can produce an
    isomorphic theory, so the interesting failures come from stale caches
    (kept logarithm or kernels) or from asymmetric tables, which the
    logarithm validation rejects.
    """
    coeffs = dict(F.coeffs)
    old = coeffs.get((i, j), F.ring.zero())
    coeffs[(i, j)] = -old
    kept = (LOG_KINDS if keep_log else ()) + (KERNEL_KINDS if keep_kernels else ())
    return FGL(F.ring, F.truncation, coeffs, {k: v for k, v in F._memo.items() if k[0] in kept})
