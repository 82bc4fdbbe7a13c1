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

Parsing builds that ``Polynomial`` directly, one ``Polynomial`` operation per
operator in left-to-right order, so the same text always gives the same terms
in the same order.  ``str()`` of a ``Polynomial`` prints it back in this
grammar; system files and their hashes are built from that text.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .poly import Polynomial


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
                node = node + rhs if val == "+" else node - rhs
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val == "*":
                self.advance()
                node = node * self.factor()
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
            node = node ** int(val)
        return node

    def base(self):
        kind, val, pos = self.peek()
        if kind == "sym" and val == "-":
            self.advance()
            return -self.base()
        if kind == "sym" and val == "(":
            self.advance()
            node = self.expr()
            self.expect_sym(")")
            return node
        if kind == "num":
            self.advance()
            return Polynomial.const(float(val), self.n)
        if kind == "ident":
            self.advance()
            if val == "i":
                return Polynomial.const(1j, self.n)
            if val == "abs2":
                self.expect_sym("(")
                ik, iv, ipos = self.advance()
                m = _VAR_RE.match(iv) if ik == "ident" else None
                if m is None:
                    raise ParseError("abs2 takes a state variable, e.g. abs2(v1)", ipos)
                k = self._check_index(int(m.group(1)), ipos)
                self.expect_sym(")")
                return Polynomial.abs2(k, self.n)
            m = _VAR_RE.match(val)
            if m is not None:
                return Polynomial.var(self._check_index(int(m.group(1)), pos), self.n)
            m = _CVAR_RE.match(val)
            if m is not None:
                return Polynomial.conjvar(self._check_index(int(m.group(1)), pos), self.n)
            raise ParseError(f"unknown identifier {val!r}", pos)
        raise ParseError(f"unexpected token {val!r}", pos)

    def _check_index(self, k, pos):
        if k < 1 or k > self.n:
            raise ParseError(f"variable index {k} out of range 1..{self.n}", pos)
        return k


def parse_field_expr(text: str, n: int) -> Polynomial:
    """Parse ``text`` into a Polynomial over ``n`` state variables."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _Parser(text, n).parse()

