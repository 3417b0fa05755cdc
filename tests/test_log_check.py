"""The law-level proofs against test-side copies of their bivariate and
growing-precision forms.

``FGL._validate_log`` proves log(F(x, y)) = log(x) + log(y) through its
y-derivative, and ``_solve_by_degree`` solves the formal inverse and the
reversion behind ``exp`` from a table of powers.  This file keeps the
direct forms as oracles: the bivariate identity, sum L_k F^k against
log(x) + log(y) at total degree N, and the solver that runs round d on
operands cut to P^d.  The log check must give the same verdict, exception
type and text as the bivariate identity on every perturbed table of a
sweep, and the solver the same series as the growing-precision one.
"""

from fractions import Fraction

import pytest

from orient_duality.algebra import CoeffRing, RingKind
from orient_duality.errors import InternalConsistencyError
from orient_duality.fgl import (
    FGL,
    NilPoly,
    Series,
    _series_on_nilpoly,
    additive_law,
    apply_law,
    law_for,
    multiplicative_law,
    unit_reciprocal,
    universal_law,
)
from orient_duality.spaces import Space, SparseClass

# -- oracles -----------------------------------------------------------------


def bivariate_log_identity(law: FGL, log: Series, table_law: FGL | None = None):
    """log(F(x, y)) = log(x) + log(y) on ``NilPoly`` at bound N: raises as
    the log check raises, returns None where it holds."""
    n = law.truncation
    x = NilPoly.gen(law.ring, 2, n, 0)
    y = NilPoly.gen(law.ring, 2, n, 1)
    lhs = _series_on_nilpoly(log, apply_law(table_law or law, x, y))
    if lhs != NilPoly.from_series(log, 2, 0) + NilPoly.from_series(log, 2, 1):
        raise InternalConsistencyError("coefficient table admits no logarithm: log(F(x,y)) != log(x) + log(y)")


def _cut(s: Series, p: int) -> Series:
    """s mod x^(p+1), a series on P^p."""
    return Series(Space((p,)), s.ring, s.terms)


def growing_precision_solve(s: Series, defect, unit: int, failure: str) -> Series:
    """Round d evaluates ``defect(s, d)`` on operands cut to P^d and cancels
    the coefficient of x^d; the last evaluation, at full precision, is the
    check."""
    for d in range(2, s.trunc + 1):
        c = defect(_cut(s, d), d)[d]
        if c:
            s = s + Series.monomial(s.space, s.ring, (d,), c * -unit)
    if defect(s, s.trunc):
        raise InternalConsistencyError(failure)
    return s


def growing_precision_reversion(s: Series) -> Series:
    ring = s.ring
    unit = 1 if s[1] == ring.one() else -1
    return growing_precision_solve(
        Series.identity(ring, s.trunc) * unit,
        lambda rev, p: _cut(s, p).compose(rev) - Series.identity(ring, p),
        unit,
        "series reversion failed to verify",
    )


def growing_precision_inverse(F: FGL) -> Series:
    return growing_precision_solve(
        -F.x_series(),
        lambda inv, p: apply_law(F, Series.identity(F.ring, p), inv),
        1,
        "formal inverse failed to verify",
    )


def _verdict(check):
    try:
        check()
    except (InternalConsistencyError, ValueError) as exc:
        return type(exc), str(exc)
    return None


# -- the sweep ---------------------------------------------------------------


def _solved_log(ring: CoeffRing, n: int, table: dict) -> Series:
    """The logarithm ``FGL.log`` solves from a table, before its check."""
    c = unit_reciprocal(ring, [ring.one()] + [table.get((i, 1), ring.zero()) for i in range(1, n)])
    return Series.make(ring, n, [ring.zero()] + [cm * Fraction(1, m + 1) for m, cm in enumerate(c)])


def _perturbed(law: FGL):
    """Each a(i,j), i + j <= N, changed four ways: a sign flip, plus one
    unit of its degree (beta^(i+j-1), or b(i+j-1) in the universal ring),
    doubling, and the flip of the symmetric pair; changes that leave the
    table as it is are skipped."""
    ring, n = law.ring, law.truncation
    for i in range(1, n):
        for j in range(1, n + 1 - i):
            a = law.a(i, j)
            bump = ring.gen(i + j - 2) if ring.kind is RingKind.UNIVERSAL else ring.gen(0) ** (i + j - 1)
            changes = [{(i, j): -a}, {(i, j): a + bump}, {(i, j): a * 2}]
            if i != j:
                changes.append({(i, j): -a, (j, i): -law.a(j, i)})
            for change in changes:
                table = {k: c for k, c in {**law.coeffs, **change}.items() if c}
                if table != law.coeffs:
                    yield table


def _sweep():
    """(ring, N, table, log) for N = 2..8 over the multiplicative and the
    universal table: each perturbed table, the table itself and the law
    rescaled by 2 (a(i,j) -> 2^(i+j-1) a(i,j), x -> 2x, again a law), each
    once with the original's stale logarithm and once with its own solved
    one."""
    for n in range(2, 9):
        for law in (multiplicative_law(n), universal_law(n)):
            rescaled = {(i, j): c * 2 ** (i + j - 1) for (i, j), c in law.coeffs.items()}
            for table in (*_perturbed(law), dict(law.coeffs), rescaled):
                for log in (law.log(), _solved_log(law.ring, n, table)):
                    yield law.ring, n, table, log


def test_log_check_matches_the_bivariate_identity_on_perturbed_tables():
    verdicts = {None: 0, InternalConsistencyError: 0}
    for ring, n, table, log in _sweep():
        old = _verdict(lambda: bivariate_log_identity(FGL(ring, table), log))
        new = _verdict(lambda: FGL(ring, table)._validate_log(log))
        assert new == old, (ring.kind, n, table, log)
        verdicts[old and old[0]] += 1
    # both verdicts occur, so the sweep tells a check that always passes
    # from one that always fails
    assert verdicts == {None: 71, InternalConsistencyError: 821}


def test_log_check_matches_the_bivariate_identity_through_a_table_law():
    # the universal law checks its log against the table being built
    for n in (2, 5, 8):
        law = universal_law(n)
        for table in list(_perturbed(law))[::7]:
            table_law = FGL(law.ring, table)
            old = _verdict(lambda: bivariate_log_identity(law, law.log(), table_law))
            new = _verdict(lambda: universal_law(n)._validate_log(law.log(), table_law))
            assert new == old


@pytest.mark.parametrize("kind", list(RingKind), ids=lambda k: k.value)
def test_log_with_a_constant_term_raises_as_before(kind):
    law = law_for(kind, 6)
    log = law.log() + Series.make(law.ring, 6, [1])
    old = _verdict(lambda: bivariate_log_identity(law_for(kind, 6), log))
    assert old == (ValueError, "expected zero constant term")
    assert _verdict(lambda: law_for(kind, 6)._validate_log(log)) == old


def test_additive_log_check_forms_no_power_past_the_first(monkeypatch):
    # log = x and G = 1: the check multiplies no two non-constant classes,
    # where sum L_k F^k formed every power of x + y up to N
    products = []
    mul = SparseClass.__mul__

    def counting(self, other):
        if isinstance(other, SparseClass) and any(map(any, self.terms)) and any(map(any, other.terms)):
            products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(SparseClass, "__mul__", counting)
    law = additive_law(12)
    law.log()
    assert ("log_identity", None) in law._memo
    assert products == []


# -- the solver ----------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 17))
@pytest.mark.parametrize("kind", list(RingKind), ids=lambda k: k.value)
def test_table_solver_equals_growing_precision(kind, n):
    law = law_for(kind, n)
    assert law.exp() == growing_precision_reversion(law.log())
    assert law.inverse() == growing_precision_inverse(law)
