import re

import numpy as np
import pytest

from stochavg import averaging, parse_field_expr, ParseError
from stochavg.acceptance import _random_monomial_poly
from stochavg.averaging import ActionPolynomial
from stochavg.poly import Field, Polynomial, as_poly


def rand_points(rng, count, n):
    return rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))


_WORD_RE = re.compile(r"\b(?:(c?)v(\d+)|i)\b")


def _eval_text(text, v):
    """The expression text as Python arithmetic at states v of shape (..., n):
    the oracle the parsed Polynomials are checked against.  vK is v[..., K-1],
    cvK its conjugate, abs2(vK) its squared modulus, ^ is ** and i is 1j.
    Python's ** binds tighter than a unary minus, the grammar's ^ does not,
    so a text here never puts a unary minus before a power."""
    v = np.asarray(v, dtype=complex)

    def word(m):
        if m.group(0) == "i":
            return "1j"
        z = f"v[..., {int(m.group(2)) - 1}]"
        return f"np.conj({z})" if m.group(1) else z

    py = _WORD_RE.sub(word, text).replace("^", "**")
    out = eval(py, {"np": np, "v": v, "abs2": lambda z: z.real**2 + z.imag**2})
    return np.broadcast_to(np.asarray(out, dtype=complex), v.shape[:-1])


def test_parse_basic_arithmetic():
    p = parse_field_expr("i*v1*abs2(v2)", 2)
    assert p.evaluate(np.array([1 + 0j, 2 + 0j])) == pytest.approx(4j)

    p = parse_field_expr("v1 + cv1", 1)
    assert p.evaluate(np.array([3 + 4j])) == pytest.approx(6.0)


def test_parse_index_out_of_range():
    with pytest.raises(ParseError):
        parse_field_expr("v3", 2)


def test_parse_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_field_expr("v1 + * v2", 2)
    assert err.value.position == 5


def test_parse_unknown_identifier():
    with pytest.raises(ParseError):
        parse_field_expr("v1 + foo", 2)


def test_parse_powers_and_brackets():
    p = parse_field_expr("(v1 + cv2)^2", 2)
    v = np.array([1 + 1j, 2 - 1j])
    expected = (v[0] + np.conj(v[1])) ** 2
    assert p.evaluate(v) == pytest.approx(expected)


def test_parse_unary_minus_and_numbers():
    p = parse_field_expr("-v1*2.5 + 1e-2", 1)
    v = np.array([2 + 0j])
    assert p.evaluate(v) == pytest.approx(-5.0 + 0.01)


@pytest.mark.parametrize("text,n", [
    ("i*v1*abs2(v2)", 2),
    ("v1 + cv1", 1),
    ("(v1+cv2)^2 - 3*v2^3*cv1", 2),
    ("-(-v1) - -v2", 2),
    ("abs2(v1)*abs2(v2) + 0.25*i*v1*v2*cv1*cv2", 2),
    ("1.5e-3*v1^4 + cv3^2*v2", 3),
])
def test_print_reparse_roundtrip(text, n):
    # printing then re-parsing must reproduce the polynomial exactly
    rng = np.random.default_rng(42)
    p1 = parse_field_expr(text, n)
    p2 = parse_field_expr(str(p1), n)
    assert p2.terms == p1.terms
    pts = rand_points(rng, 64, n)
    np.testing.assert_allclose(p2.evaluate(pts), _eval_text(text, pts),
                               rtol=1e-12, atol=1e-14)


def _random_coefficient(rng):
    """A complex, real, negative or imaginary number of size 1e-300 to 1e300."""
    c = complex(rng.standard_normal(), rng.standard_normal()) * 10.0 ** rng.integers(-300, 301)
    return [c, complex(c.real), complex(-abs(c.real)), complex(0.0, c.imag)][rng.integers(4)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_polynomial_text_reparses_to_equal_terms(n):
    rng = np.random.default_rng(n)
    for _ in range(50):
        p = _random_monomial_poly(rng, n, degree=4)
        p = Polynomial(n, {key: _random_coefficient(rng) for key in p.terms})
        p = p + Polynomial.const(_random_coefficient(rng), n)
        assert parse_field_expr(str(p), n).terms == p.terms
    assert str(Polynomial.zero(n)) == "0"
    assert str(Polynomial.var(1, n) * -2.5 + (1 - 0.5j)) == "-2.5*v1 + (1.0 - 0.5*i)"
    assert str(Polynomial.const(1 - 0.5j, n) + Polynomial.var(1, n) * -2.5) == \
        "(1.0 - 0.5*i) + -2.5*v1"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_polynomial_text_keeps_term_order_and_evaluation_bits(n):
    # the text lists terms in the order evaluate sums them in, so the parsed
    # text sums them in that order too and gives the same bits
    rng = np.random.default_rng(40 + n)
    pts = rand_points(rng, 256, n)
    for _ in range(50):
        keys = list(dict.fromkeys(
            (tuple(rng.integers(0, 3, n)), tuple(rng.integers(0, 3, n)))
            for _ in range(rng.integers(1, 9))))
        p = Polynomial(n, {key: complex(*rng.standard_normal(2)) for key in keys})
        q = parse_field_expr(str(p), n)
        assert list(q.terms.items()) == list(p.terms.items())
        assert q.evaluate(pts).tobytes() == p.evaluate(pts).tobytes()


@pytest.mark.parametrize("c", [np.inf, -np.inf, np.nan, complex(1.0, np.inf)])
def test_polynomial_text_rejects_nonfinite_coefficients(c):
    with pytest.raises(ValueError, match="not finite"):
        str(Polynomial(1, {((1,), (0,)): complex(c)}))


def test_to_polynomial_abs2_times_var():
    p = parse_field_expr("abs2(v1)*v1", 1)
    assert p.terms == {((2,), (1,)): 1.0 + 0j}


def test_to_polynomial_cancellation():
    p = parse_field_expr("v1 - v1", 1)
    assert p.terms == {}


def test_to_polynomial_square_expansion():
    # (v1 + cv2)^2 = v1^2 + 2 v1 cv2 + cv2^2, checked against direct evaluation
    p = parse_field_expr("(v1 + cv2)^2", 2)
    assert len(p.terms) == 3
    assert p.terms[((2, 0), (0, 0))] == pytest.approx(1.0)
    assert p.terms[((1, 0), (0, 1))] == pytest.approx(2.0)
    assert p.terms[((0, 0), (0, 2))] == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    pts = rand_points(rng, 64, 2)
    np.testing.assert_allclose(p.evaluate(pts), _eval_text("(v1 + cv2)^2", pts), rtol=1e-10)


@pytest.mark.parametrize("text,n", [
    ("i*v1*abs2(v2) - 2*cv1^2", 2),
    ("(v1 - cv1)^3", 1),
    ("abs2(v2)^2*v3 + v1*v2*v3", 3),
])
def test_to_polynomial_matches_ast_at_random_points(text, n):
    p = parse_field_expr(text, n)
    rng = np.random.default_rng(7)
    pts = rand_points(rng, 64, n)
    np.testing.assert_allclose(p.evaluate(pts), _eval_text(text, pts), rtol=1e-10, atol=1e-12)


def test_polynomial_wirtinger_derivatives():
    # d/dconj(v1) of (v1 cv1)^2 = 2 v1^2 cv1
    p = parse_field_expr("(v1*cv1)^2", 1)
    d = p.dvbar(1)
    assert d.terms == {((2,), (1,)): 2.0 + 0j}


def test_polynomial_conj_swaps_exponents():
    p = parse_field_expr("i*v1^2*cv2", 2)
    q = p.conj()
    rng = np.random.default_rng(3)
    pts = rand_points(rng, 16, 2)
    np.testing.assert_allclose(q.evaluate(pts), np.conj(p.evaluate(pts)), rtol=1e-12)


def test_as_poly_rejects_other_dimension():
    p = parse_field_expr("v1*cv1 + v2", 2)
    assert as_poly(p, 2) is p
    with pytest.raises(ValueError, match="over 2 variables, expected 3"):
        as_poly(p, 3)
    with pytest.raises(ValueError):
        averaging.average_function(p, [1, 1, 1])
    with pytest.raises(TypeError, match="got str"):
        as_poly("v1", 2)


def test_polynomial_evaluate_rejects_other_dimension():
    p = parse_field_expr("v1 + v2", 2)
    with pytest.raises(ValueError):
        p.evaluate(np.ones((4, 3), dtype=complex))
    with pytest.raises(ValueError):
        p.evaluate(np.ones(1, dtype=complex))


def test_polynomial_evaluate_shapes_and_zero():
    p = parse_field_expr("2*v1*cv2 - i", 2)
    rng = np.random.default_rng(5)
    pts = rand_points(rng, 12, 2).reshape(3, 4, 2)
    out = p.evaluate(pts)
    assert out.shape == (3, 4)
    np.testing.assert_array_equal(out, 2 * pts[..., 0] * np.conj(pts[..., 1]) - 1j)
    zero = Polynomial.zero(2).evaluate(pts)
    assert zero.shape == (3, 4) and zero.dtype == complex and not zero.any()


# -- shared power table against per-entry evaluation --------------------------------

def monomial_sum(expos, coeffs, column, zero):
    """Per-call power table: each term multiplies its powers in column order
    and adds its scaled product to the running sum."""
    out = zero
    rows = expos.tolist()
    powers = []
    for j, top in enumerate(map(max, zip(*rows))):
        col = [None, column(j)] if top else None
        for _ in range(top - 1):
            col.append(col[-1] * col[1])
        powers.append(col)
    for row, c in zip(rows, coeffs):
        t = None
        for j, e in enumerate(row):
            if e:
                t = powers[j][e] if t is None else t * powers[j][e]
        out = out + (c if t is None else c * t)
    return out


def _evaluate_alone(p, x):
    if isinstance(p, Polynomial):
        v, n = np.asarray(x, dtype=complex), p.n
        expos = np.array([a + b for a, b in p.terms], dtype=int).reshape(len(p.terms), 2 * n)
        return monomial_sum(expos, list(p.terms.values()),
                            lambda j: v[..., j] if j < n else np.conj(v[..., j - n]),
                            np.zeros(v.shape[:-1], dtype=complex))
    x = 2.0 * np.asarray(x, dtype=float)
    return monomial_sum(p.expos, p.coeffs, lambda j: x[..., j], np.zeros(x.shape[:-1]))


def _entries_alone(polys, x):
    if hasattr(polys, "evaluate"):
        return _evaluate_alone(polys, x)
    return np.stack([_entries_alone(p, x) for p in polys], axis=np.ndim(x) - 1)


def _random_action_poly(rng, n):
    terms = int(rng.integers(1, 5))
    expos = rng.integers(0, 3, (terms, n))
    for row in expos:  # degree <= 4 in v, so total exponent <= 2 in I
        while row.sum() > 2:
            row[int(np.argmax(row))] -= 1
    return ActionPolynomial(n, rng.standard_normal(terms), expos)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["poly", "action"])
def test_shared_table_matches_entry_by_entry_bitwise(n, kind):
    rng = np.random.default_rng(100 * n + len(kind))
    for _ in range(6):
        if kind == "poly":
            make = lambda: _random_monomial_poly(rng, n, degree=4)
            batch = rand_points(rng, 7, n)
            points = [batch, batch.reshape(7, 1, n), batch[0], batch[:, ::-1][3]]
        else:
            make = lambda: _random_action_poly(rng, n)
            batch = rng.random((7, n))
            points = [batch, batch.reshape(7, 1, n), batch[0], 2.0 * batch[5]]
        flat = tuple(make() for _ in range(n))
        nest = ((make(), make()), (make(), make()))
        if kind == "poly":
            flat += (Polynomial.zero(n), Polynomial.const(2.5 - 1j, n))
        for polys in (flat, nest, flat[0]):
            for x in points:  # batched, and single points (0-d columns)
                got, want = Field(polys)(x), _entries_alone(polys, x)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
