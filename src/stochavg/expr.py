"""Expression language for drift components, dispersion entries and Hamiltonians.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := 'v'uint | 'cv'uint | 'i' | number | 'abs2(' 'v'uint ')'
            | '(' expr ')' | '-' base

``v3`` is the third complex state variable, ``cv3`` its conjugate, ``i`` the
imaginary unit, ``abs2(v3)`` the squared modulus ``v3*cv3``.  Numbers are
nonnegative real literals (scientific notation allowed); negative constants
are written with the unary minus.  Every expression this grammar produces is
a polynomial in the variables and their conjugates.

The parse tree is for parsing and printing only: ``str()`` prints a node
back in this grammar (system files and their hashes are built from that
text), and :func:`stochavg.poly.from_expr` lowers it to the ``Polynomial``
that is evaluated at runtime.
"""

from __future__ import annotations

import re

from .errors import ParseError


class FieldExpr:
    """Base class for expression AST nodes.

    Nodes are immutable.  They print through ``str()``; to evaluate one,
    lower it with :func:`stochavg.poly.from_expr`.
    """

    def __str__(self):
        return self._fmt(_PREC_EXPR)

    def _fmt(self, prec):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self})"


# precedence levels used by the printer (higher binds tighter)
_PREC_EXPR, _PREC_TERM, _PREC_FACTOR, _PREC_BASE = 0, 1, 2, 3


def _paren(node, target, own):
    s = node._fmt(own)
    return f"({s})" if own < target else s


class Var(FieldExpr):
    def __init__(self, k):
        self.k = k

    def _fmt(self, prec):
        return f"v{self.k}"


class ConjVar(FieldExpr):
    def __init__(self, k):
        self.k = k

    def _fmt(self, prec):
        return f"cv{self.k}"


class Imag(FieldExpr):
    def _fmt(self, prec):
        return "i"


class Num(FieldExpr):
    def __init__(self, value):
        self.value = float(value)

    def _fmt(self, prec):
        return repr(self.value)


class Abs2(FieldExpr):
    """abs2(vk) = |v_k|^2 = v_k * conj(v_k)."""

    def __init__(self, k):
        self.k = k

    def _fmt(self, prec):
        return f"abs2(v{self.k})"


class Add(FieldExpr):
    def __init__(self, left, right):
        self.left, self.right = left, right

    def _fmt(self, prec):
        return f"{_paren(self.left, _PREC_EXPR, _PREC_EXPR)} + {_paren(self.right, _PREC_TERM, _infer(self.right))}"


class Sub(FieldExpr):
    def __init__(self, left, right):
        self.left, self.right = left, right

    def _fmt(self, prec):
        return f"{_paren(self.left, _PREC_EXPR, _infer(self.left))} - {_paren(self.right, _PREC_TERM, _infer(self.right))}"


class Mul(FieldExpr):
    def __init__(self, left, right):
        self.left, self.right = left, right

    def _fmt(self, prec):
        return f"{_paren(self.left, _PREC_TERM, _infer(self.left))}*{_paren(self.right, _PREC_FACTOR, _infer(self.right))}"


class Neg(FieldExpr):
    def __init__(self, operand):
        self.operand = operand

    def _fmt(self, prec):
        # '-' base: operand must print at base level
        return f"-{_paren(self.operand, _PREC_BASE, _infer(self.operand))}"


class Pow(FieldExpr):
    def __init__(self, base, exponent):
        self.base, self.exponent = base, int(exponent)

    def _fmt(self, prec):
        return f"{_paren(self.base, _PREC_BASE, _infer(self.base))}^{self.exponent}"


def _infer(node):
    if isinstance(node, (Add, Sub)):
        return _PREC_EXPR
    if isinstance(node, Mul):
        return _PREC_TERM
    if isinstance(node, Pow):
        return _PREC_FACTOR
    return _PREC_BASE


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*^()])"
    r")"
)

_VAR_RE = re.compile(r"^v(\d+)$")
_CVAR_RE = re.compile(r"^cv(\d+)$")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip trailing whitespace gracefully
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, n):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_sym(self, sym):
        kind, val, pos = self.peek()
        if kind != "sym" or val != sym:
            raise ParseError(f"expected {sym!r}, found {val!r}", pos)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val == "*":
                self.advance()
                node = Mul(node, self.factor())
            else:
                return node

    def factor(self):
        node = self.base()
        kind, val, _ = self.peek()
        if kind == "sym" and val == "^":
            self.advance()
            kind, val, pos = self.advance()
            if kind != "num" or not val.isdigit():
                raise ParseError("exponent must be a nonnegative integer", pos)
            node = Pow(node, int(val))
        return node

    def base(self):
        kind, val, pos = self.peek()
        if kind == "sym" and val == "-":
            self.advance()
            return Neg(self.base())
        if kind == "sym" and val == "(":
            self.advance()
            node = self.expr()
            self.expect_sym(")")
            return node
        if kind == "num":
            self.advance()
            return Num(float(val))
        if kind == "ident":
            self.advance()
            if val == "i":
                return Imag()
            if val == "abs2":
                self.expect_sym("(")
                ik, iv, ipos = self.advance()
                m = _VAR_RE.match(iv) if ik == "ident" else None
                if m is None:
                    raise ParseError("abs2 takes a state variable, e.g. abs2(v1)", ipos)
                k = self._check_index(int(m.group(1)), ipos)
                self.expect_sym(")")
                return Abs2(k)
            m = _VAR_RE.match(val)
            if m is not None:
                return Var(self._check_index(int(m.group(1)), pos))
            m = _CVAR_RE.match(val)
            if m is not None:
                return ConjVar(self._check_index(int(m.group(1)), pos))
            raise ParseError(f"unknown identifier {val!r}", pos)
        raise ParseError(f"unexpected token {val!r}", pos)

    def _check_index(self, k, pos):
        if k < 1 or k > self.n:
            raise ParseError(f"variable index {k} out of range 1..{self.n}", pos)
        return k


def parse_field_expr(text: str, n: int) -> FieldExpr:
    """Parse ``text`` into an expression over at most ``n`` state variables."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _Parser(text, n).parse()

