"""Canonical polynomial form for expressions in (v_1..v_n, cv_1..cv_n).

A polynomial is a finite sum of monomials ``c * prod_j v_j^alpha_j *
prod_j conj(v_j)^beta_j`` keyed by the exponent pair ``(alpha, beta)``.
This form makes torus averaging exact: rotating ``v_j -> e^{-i w_j} v_j``
multiplies a monomial by ``e^{i (beta - alpha) . w}``, so averaging against
a phase ``e^{i d . w}`` keeps exactly the monomials with ``alpha - beta = d``.

It is also the one form of a polynomial field: the parser of
:mod:`stochavg.expr` builds Polynomials, ``str()`` prints one back in its
grammar, and every field, dispersion entry and Hamiltonian is evaluated
through ``Polynomial.evaluate``.
"""

from __future__ import annotations

import numpy as np


def lower_monomials(expos):
    """(column, exponent) tuples of the rows of an exponent array."""
    return [tuple((j, e) for j, e in enumerate(row) if e) for row in expos]


def _sum_terms(table, monomials, coeffs, out=None):
    """Sum over terms of ``coeffs[t] * product(monomials[t])`` in term order,
    starting from the table's zero; in place in ``out`` if given."""
    products, slot, total = table
    for mono, c in zip(monomials, coeffs):
        total = np.add(total, c * products[slot[mono]] if mono else c, out)
    if out is None or total is out:
        return total
    np.copyto(out, total)  # no terms
    return out


class Polynomial:
    """Immutable-by-convention polynomial over n complex variables."""

    __slots__ = ("n", "terms", "_lowered")

    def __init__(self, n, terms=None):
        self.n = int(n)
        self.terms = dict(terms) if terms else {}
        self._lowered = None  # (monomials, coefficients), built on first evaluate

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def const(cls, value, n):
        value = complex(value)
        if value == 0:
            return cls(n)
        zero = (0,) * n
        return cls(n, {(zero, zero): value})

    @classmethod
    def var(cls, k, n):
        alpha = tuple(1 if j == k - 1 else 0 for j in range(n))
        return cls(n, {(alpha, (0,) * n): 1.0 + 0j})

    @classmethod
    def conjvar(cls, k, n):
        beta = tuple(1 if j == k - 1 else 0 for j in range(n))
        return cls(n, {((0,) * n, beta): 1.0 + 0j})

    @classmethod
    def abs2(cls, k, n):
        e = tuple(1 if j == k - 1 else 0 for j in range(n))
        return cls(n, {(e, e): 1.0 + 0j})

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0j) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return Polynomial(self.n, out)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return Polynomial(self.n, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            if other == 0:
                return Polynomial.zero(self.n)
            return Polynomial(self.n, {k: c * other for k, c in self.terms.items()})
        other = self._coerce(other)
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (
                    tuple(x + y for x, y in zip(a1, a2)),
                    tuple(x + y for x, y in zip(b1, b2)),
                )
                s = out.get(key, 0j) + c1 * c2
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return Polynomial(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers are not polynomial")
        out = Polynomial.const(1.0, self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def conj(self):
        """Complex conjugate: swaps alpha and beta, conjugates coefficients."""
        return Polynomial(
            self.n, {(b, a): np.conj(c) for (a, b), c in self.terms.items()}
        )

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise ValueError("mixing polynomials over different state dimensions")
            return other
        return Polynomial.const(other, self.n)

    # -- calculus ------------------------------------------------------
    def dvbar(self, k):
        """Wirtinger derivative with respect to conj(v_k); lowers beta_k."""
        out = {}
        j = k - 1
        for (a, b), c in self.terms.items():
            if b[j] == 0:
                continue
            nb = list(b)
            nb[j] -= 1
            key = (a, tuple(nb))
            out[key] = out.get(key, 0j) + c * b[j]
        return Polynomial(self.n, out)

    # -- structure -----------------------------------------------------
    def is_constant(self):
        zero = (0,) * self.n
        return all(key == (zero, zero) for key in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        zero = (0,) * self.n
        return self.terms.get((zero, zero), 0j)

    def keep_resonant(self, shift):
        """Keep monomials with alpha - beta equal to the integer vector ``shift``.

        These are exactly the monomials surviving torus averaging against the
        phase factor ``e^{i shift . w}``.
        """
        shift = tuple(int(s) for s in shift)
        out = {
            (a, b): c
            for (a, b), c in self.terms.items()
            if tuple(x - y for x, y in zip(a, b)) == shift
        }
        return Polynomial(self.n, out)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    # -- evaluation ------------------------------------------------------
    @property
    def lowered(self):
        """(monomials, coefficients) of the terms in insertion order."""
        if self._lowered is None:
            self._lowered = (lower_monomials(a + b for a, b in self.terms),
                             list(self.terms.values()))
        return self._lowered

    def columns(self, v):
        """The columns v_1..v_n, then cv_1..cv_n, of the points ``v`` of shape
        (..., n), as a function of j, and the zero sums start from."""
        v = np.asarray(v, dtype=complex)
        if v.shape[-1] != self.n:
            raise ValueError(f"state has {v.shape[-1]} components, polynomial has {self.n}")
        n = self.n
        # conjugate per column: a 0-d column conjugates to a numpy scalar,
        # whose products round differently from those of a 0-d array
        return (lambda j: v[..., j] if j < n else np.conj(v[..., j - n]),
                np.zeros(v.shape[:-1], dtype=complex))

    def evaluate(self, v, table=None, out=None):
        """Evaluate at ``v`` of shape (..., n); broadcasts over leading axes.

        ``table`` is the table of a Field holding this polynomial when
        several entries are evaluated at the same points, and ``out`` an
        array to sum into.
        """
        return _sum_terms(table or Field(self).table(v), *self.lowered, out)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(self.sorted_terms())))

    def __str__(self):
        """The polynomial in the expression grammar of :mod:`stochavg.expr`:
        one ``coefficient*monomial`` per term in insertion order, which is
        the order ``evaluate`` sums them in, with float-repr coefficients,
        ``(a + b*i)`` for a complex one and a unary minus for a negative
        one, so parsing the text gives back the same terms in the same order
        and a polynomial that evaluates bit for bit the same.  A non-finite
        coefficient has no such text and raises ValueError."""
        terms = []
        for (a, b), c in self.terms.items():
            mono, c = monomial_text(a, b), complex(c)
            if not np.isfinite(c):
                raise ValueError(f"coefficient {c} of {mono} is not finite")
            coef = (f"({_signed(c.real)} {'-' if c.imag < 0 else '+'} {abs(c.imag)!r}*i)"
                    if c.imag else _signed(c.real))
            terms.append(coef if mono == "1" else f"{coef}*{mono}")
        return " + ".join(terms) or "0"

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for (a, b), c in self.sorted_terms():
            mono = monomial_text(a, b)
            bits.append(f"({c:g})" if mono == "1" else f"({c:g}){mono}")
        return "Polynomial(" + " + ".join(bits) + ")"


def _signed(x):
    """A real number in the grammar, which has only nonnegative literals."""
    return f"-{-x!r}" if x < 0 else repr(x)


def monomial_text(alpha, beta):
    """The monomial v^alpha cv^beta in the expression grammar, e.g. ``v1^2*cv2``;
    ``1`` for the constant monomial."""
    return "*".join(
        [f"v{j+1}^{e}" if e > 1 else f"v{j+1}" for j, e in enumerate(alpha) if e]
        + [f"cv{j+1}^{e}" if e > 1 else f"cv{j+1}" for j, e in enumerate(beta) if e]
    ) or "1"


class Field:
    """A nested sequence of polynomials (or action polynomials), with the
    products of its monomials compiled once into steps: a column, or the
    product of two earlier steps (left to right in column order, with
    x_j^e = x_j^(e-1) * x_j), so a monomial that several entries share is
    multiplied out once per call.  A call sums each entry through its own
    ``evaluate``, looked up on its class at every call."""

    __slots__ = ("shape", "leaves", "steps", "slot")

    def __init__(self, polys):
        shape, leaves = [], [polys]
        while not hasattr(leaves[0], "evaluate"):
            shape.append(len(leaves[0]))
            leaves = [p for row in leaves for p in row]
        self.shape, self.leaves = tuple(shape), leaves
        self.steps, self.slot = [], {}  # (None, column) or (left, right) step numbers

        def visit(mono):
            if mono not in self.slot:
                (j, e) = mono[-1]
                two = ((mono[:-1], mono[-1:]) if len(mono) > 1
                       else (((j, e - 1),), ((j, 1),)) if e > 1 else None)
                for factor in two or ():
                    visit(factor)
                self.slot[mono] = len(self.steps)
                self.steps.append((self.slot[two[0]], self.slot[two[1]]) if two else (None, j))

        for p in leaves:
            for mono in p.lowered[0]:
                if mono:
                    visit(mono)

    def table(self, x):
        """(products, slots, zero) at points x of shape (..., m)."""
        column, zero = self.leaves[0].columns(x)
        products = []
        for left, right in self.steps:
            products.append(column(right) if left is None else products[left] * products[right])
        return products, self.slot, zero

    def __call__(self, x, out=None):
        """The entries at points x of shape (..., m), of shape x.shape[:-1]
        + the nesting shape: (..., n) for a field, (..., n, n1) for a matrix
        of entries.  A field's entries can go to ``out`` in any layout: a
        mode-major state's ``.T`` takes them as contiguous rows."""
        table = self.table(x)
        lead = table[2].shape
        if out is None:
            out = np.empty((*lead, *self.shape), dtype=table[2].dtype)
        flat = out.reshape(*lead, len(self.leaves))  # a view: out is new, or flat
        for i, p in enumerate(self.leaves):
            if lead:
                p.evaluate(x, table, flat[..., i])
            else:  # single points sum in numpy scalars, as evaluate does
                flat[i] = p.evaluate(x, table)
        return out


def as_poly(field, n: int) -> Polynomial:
    """A number or a Polynomial over n variables, as a Polynomial.  Anything
    else is a TypeError; a Polynomial over another number of variables is a
    ValueError."""
    if isinstance(field, (int, float, complex)):
        return Polynomial.const(field, n)
    if not isinstance(field, Polynomial):
        raise TypeError(f"expected a number or a Polynomial, got {type(field).__name__}")
    if field.n != n:
        raise ValueError(f"polynomial is over {field.n} variables, expected {n}")
    return field
