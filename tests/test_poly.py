"""The compiled field form of ``stochavg.poly`` against the per-call power
table it replaced, kept here as the slow oracle."""

import numpy as np
import pytest

from stochavg.averaging import ActionPolynomial
from stochavg.poly import Field, Polynomial


class PowerTable:
    """The oracle: products of powers of the columns x_j of one set of
    points, memoised per call by recursion, so that every entry of a field
    evaluated there shares them.  A monomial is the tuple of its (column,
    exponent) pairs with positive exponent, in column order; its product
    multiplies left to right, with x_j^e = x_j^(e-1) * x_j."""

    def __init__(self, column, zero):
        self.column = column
        self.zero = zero
        self._products = {}

    def product(self, monomial):
        t = self._products.get(monomial)
        if t is None:
            (j, e) = monomial[-1]
            if len(monomial) > 1:
                t = self.product(monomial[:-1]) * self.product(monomial[-1:])
            elif e > 1:
                t = self.product(((j, e - 1),)) * self.product(((j, 1),))
            else:
                t = self.column(j)
            self._products[monomial] = t
        return t

    def sum(self, monomials, coeffs):
        out = self.zero
        for mono, c in zip(monomials, coeffs):
            out = out + (c * self.product(mono) if mono else c)
        return out


def _lower(expos):
    return [tuple((j, e) for j, e in enumerate(row) if e) for row in expos]


def _oracle_table(p, x):
    if isinstance(p, Polynomial):
        v, n = np.asarray(x, dtype=complex), p.n
        return PowerTable(lambda j: v[..., j] if j < n else np.conj(v[..., j - n]),
                          np.zeros(v.shape[:-1], dtype=complex))
    x = 2.0 * np.asarray(x, dtype=float)
    return PowerTable(lambda j: x[..., j], np.zeros(x.shape[:-1]))


def _oracle_terms(p):
    if isinstance(p, Polynomial):
        return _lower(a + b for a, b in p.terms), list(p.terms.values())
    return _lower(p.expos.tolist()), p.coeffs


def oracle_entries(polys, x):
    """The entries of a nested sequence of polynomials at points x, all
    sharing one PowerTable, as they were computed before fields were
    compiled."""
    shape, leaves = [], [polys]
    while not hasattr(leaves[0], "evaluate"):
        shape.append(len(leaves[0]))
        leaves = [p for row in leaves for p in row]
    table = _oracle_table(leaves[0], x)
    lead = table.zero.shape
    out = np.empty((*lead, len(leaves)), dtype=table.zero.dtype)
    for i, p in enumerate(leaves):
        out[..., i] = table.sum(*_oracle_terms(p))
    return out.reshape(*lead, *shape)


def _random_poly_field(rng, n, entries):
    """Entries over n variables whose terms come from one pool of
    monomials (so entries share them), inserted in random order, with
    exponents up to 3 in each v_j and each cv_j; some entries are constant
    and some zero."""
    pool = {(tuple(rng.integers(0, 4, n)), tuple(rng.integers(0, 4, n)))
            for _ in range(int(rng.integers(2, 7)))}
    pool = sorted(pool)
    field = []
    for _ in range(entries):
        kind = rng.random()
        if kind < 0.1:
            field.append(Polynomial.zero(n))
        elif kind < 0.2:
            field.append(Polynomial.const(complex(*rng.standard_normal(2)), n))
        else:
            picked = rng.permutation(len(pool))[:int(rng.integers(1, len(pool) + 1))]
            keys = [pool[i] for i in picked]
            coeffs = rng.standard_normal((len(keys), 2)) * (rng.random((len(keys), 2)) < 0.8)
            field.append(Polynomial(n, {k: complex(*c) for k, c in zip(keys, coeffs)}))
    return tuple(field)


def _random_action_field(rng, n, entries):
    pool = sorted({tuple(rng.integers(0, 4, n)) for _ in range(int(rng.integers(2, 7)))})
    field = []
    for _ in range(entries):
        kind = rng.random()
        if kind < 0.1:
            field.append(ActionPolynomial(n, [0.0], [(0,) * n]))
        elif kind < 0.2:
            field.append(ActionPolynomial(n, [rng.standard_normal()], [(0,) * n]))
        else:
            picked = rng.permutation(len(pool))[:int(rng.integers(1, len(pool) + 1))]
            rows = [pool[i] for i in picked]
            field.append(ActionPolynomial(n, rng.standard_normal(len(rows)), rows))
    return tuple(field)


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and \
        np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("kind", ["poly", "action"])
def test_compiled_fields_match_the_power_table_oracle_bitwise(kind):
    rng = np.random.default_rng(1717 if kind == "poly" else 1718)
    for case in range(120):
        n = int(rng.integers(1, 4))
        entries = int(rng.integers(1, 5))
        if kind == "poly":
            field = _random_poly_field(rng, n, entries)
            x = rng.standard_normal((37, n)) + 1j * rng.standard_normal((37, n))
        else:
            field = _random_action_field(rng, n, entries)
            x = rng.random((37, n)) * 3.0
        modes = np.ascontiguousarray(x.T)  # mode-major states, (n, paths)
        want = oracle_entries(field, x)
        compiled = Field(field)
        for points in (x, modes.T):
            assert _same_bits(compiled(points), want), case
        # entry rows written in place, as the mode-major step reads a drift
        rows = np.empty((entries, x.shape[0]), dtype=want.dtype)
        compiled(modes.T, rows.T)
        assert _same_bits(rows.T, want), case
        # each entry on its own, and a single point (numpy-scalar columns)
        for i, p in enumerate(field):
            assert _same_bits(p.evaluate(modes.T), want[:, i]), case
        assert _same_bits(compiled(x[3]), oracle_entries(field, x[3])), case
