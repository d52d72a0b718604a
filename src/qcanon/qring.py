"""Exact arithmetic in Z[v, v^-1] with q = v^2.

Everything downstream is linear algebra over this ring.  A scalar is a finite
sum of integer multiples of powers of v; we track exponents in units of v so
that half-integer powers of q (which show up in Cartan factors q^{h@h/2} on
odd weights) need no special casing.  Coefficients are Python ints, so all
arithmetic is exact by construction.  Divisions (by quantum integers, for
divided powers) go through :func:`exact_div`, which raises instead of ever
producing a non-integral result.  Products, sums and the sums of products
in `linalg` share one coefficient loop, the multiply-accumulate `addmul`.

The bar involution fixes v-degree-zero terms and negates exponents
(q -> q^-1).  Quantum integers [n] = (q^n - q^-n)/(q - q^-1) are
bar-invariant with nonnegative integer coefficients.
"""

from __future__ import annotations

from typing import Mapping

from .common import InexactDivisionError


class QScalar:
    """A Laurent polynomial in v with integer coefficients.

    Immutable value type.  ``_terms`` maps v-exponent -> nonzero coefficient;
    no zero coefficients are ever stored, which makes equality and zero tests
    structural.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean = {}
        if terms:
            for e, c in terms.items():
                if c:
                    clean[int(e)] = c
        self._terms = clean

    @staticmethod
    def _raw(terms: dict) -> "QScalar":
        # internal: terms already canonical (no zeros)
        s = QScalar.__new__(QScalar)
        s._terms = terms
        return s

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(c: int) -> "QScalar":
        return QScalar._raw({0: c} if c else {})

    @staticmethod
    def v_power(e: int) -> "QScalar":
        return QScalar._raw({e: 1})

    @staticmethod
    def q_power(k: int) -> "QScalar":
        return QScalar.v_power(2 * k)

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, QScalar):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self):
        # a constant hashes as its integer, since it compares equal to it
        if not self._terms.keys() - {0}:
            return hash(self._terms.get(0, 0))
        return hash(tuple(sorted(self._terms.items())))

    def __neg__(self) -> "QScalar":
        return QScalar._raw({e: -c for e, c in self._terms.items()})

    def __add__(self, other) -> "QScalar":
        if isinstance(other, int):
            other = QScalar.from_int(other)
        if not isinstance(other, QScalar):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        addmul(acc, other, ONE)
        return QScalar._raw(acc)

    __radd__ = __add__

    def __sub__(self, other) -> "QScalar":
        if isinstance(other, int):
            other = QScalar.from_int(other)
        if not isinstance(other, QScalar):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QScalar":
        return (-self) + other

    def __mul__(self, other) -> "QScalar":
        if isinstance(other, int):
            if not other:
                return ZERO
            return QScalar._raw({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, QScalar):
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return ZERO
        if len(a) == 1:
            ((ea, ca),) = a.items()
            return QScalar._raw({ea + eb: ca * cb for eb, cb in b.items()})
        if len(b) == 1:
            ((eb, cb),) = b.items()
            return QScalar._raw({ea + eb: ca * cb for ea, ca in a.items()})
        acc: dict[int, int] = {}
        addmul(acc, self, other)
        return QScalar._raw(acc)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "QScalar":
        if k < 0:
            raise ValueError("negative powers only for monomials; invert explicitly")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure queries --------------------------------------------------

    def bar(self) -> "QScalar":
        """The involution q -> q^-1 (negate every v-exponent)."""
        return QScalar._raw({-e: c for e, c in self._terms.items()})

    # -- printing ------------------------------------------------------------

    @staticmethod
    def _render_power(e: int) -> str:
        # e is a v-exponent; print in units of q, braces for half powers
        if e == 0:
            return ""
        if e % 2 == 0:
            k = e // 2
            return "q" if k == 1 else f"q^{k}"
        return f"q^{{{e}/2}}"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for e in sorted(self._terms):
            c = self._terms[e]
            power = self._render_power(e)
            if not power:
                body = str(abs(c))
            elif abs(c) == 1:
                body = power
            else:
                body = f"{abs(c)}{power}"
            if not chunks:
                chunks.append(("-" if c < 0 else "") + body)
            else:
                chunks.append(("- " if c < 0 else "+ ") + body)
        return " ".join(chunks)

    __repr__ = __str__


def addmul(acc: dict, a: QScalar, b: QScalar) -> None:
    """acc += a*b in place, on a zero-free v-exponent -> int dict.

    `acc` must be a private dict, never the ``_terms`` of a live QScalar.
    """
    bt = b._terms
    for ea, ca in a._terms.items():
        for eb, cb in bt.items():
            e = ea + eb
            c = acc.get(e, 0) + ca * cb
            if c:
                acc[e] = c
            else:
                del acc[e]


ZERO = QScalar._raw({})
ONE = QScalar._raw({0: 1})

#: q - q^-1, the denominator of quantum integers.
Q_MINUS_QINV = QScalar._raw({2: 1, -2: -1})


def quantum_int(n: int) -> QScalar:
    """[n] = q^{n-1} + q^{n-3} + ... + q^{1-n}; [0] = 0."""
    if n < 0:
        raise ValueError(f"quantum integer needs n >= 0, got {n}")
    return QScalar._raw({2 * (n - 1 - 2 * i): 1 for i in range(n)})


def exact_div(num: QScalar, den: QScalar) -> QScalar:
    """Exact quotient num/den in Z[v, v^-1]; raises if anything is left over."""
    if not den:
        raise InexactDivisionError("division by zero")
    if not num:
        return ZERO
    # Shift both to polynomials in v (valuation 0), divide, shift back.
    nmin = min(num._terms)
    dmin = min(den._terms)
    rem = {e - nmin: c for e, c in num._terms.items()}
    dpoly = {e - dmin: c for e, c in den._terms.items()}
    dtop = max(dpoly)
    dlead = dpoly[dtop]
    quot: dict[int, int] = {}
    while rem:
        rtop = max(rem)
        if rtop < dtop:
            raise InexactDivisionError(f"inexact division: {num} / {den}")
        c, leftover = divmod(rem[rtop], dlead)
        if leftover:
            raise InexactDivisionError(f"inexact division: {num} / {den}")
        shift = rtop - dtop
        quot[shift] = c
        for e, dc in dpoly.items():
            t = e + shift
            s = rem.get(t, 0) - c * dc
            if s:
                rem[t] = s
            else:
                rem.pop(t, None)
    return QScalar._raw({e + nmin - dmin: c for e, c in quot.items()})


def in_qinv_ideal(p: QScalar) -> bool:
    """True iff p lies in q^-1 Z[q^-1]: all exponents even and <= -2 in v."""
    return all(e < 0 and e % 2 == 0 for e in p._terms)
