"""Integer Laurent polynomials in one variable q.

Coefficients are exact Python integers and exponents may be negative, so
this is the ring Z[q, q^-1].  No command uses it: the symbolic Hecke
reference in the tests adds, subtracts, negates, multiplies and compares
these values, and the benchmark's tracer counts the products.

>>> (Q - QINV) * (Q + QINV)
q^2 - q^-2
"""

from __future__ import annotations


class LaurentPolynomial:
    """Sparse Laurent polynomial: a map exponent -> nonzero coefficient."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=0):
        if isinstance(coeffs, int):
            self._c = {0: coeffs} if coeffs else {}
        elif isinstance(coeffs, dict):
            self._c = {e: c for e, c in coeffs.items() if c}
        else:
            raise TypeError(f"cannot build LaurentPolynomial from {coeffs!r}")

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out = dict(self._c)
        for e, c in other._c.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = LaurentPolynomial.__new__(LaurentPolynomial)
        res._c = out
        return res

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial({e: -c for e, c in self._c.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPolynomial({e: c * other for e, c in self._c.items()})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        res = LaurentPolynomial.__new__(LaurentPolynomial)
        res._c = out
        return res

    __rmul__ = __mul__

    def __repr__(self):
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c, reverse=True):
            c = self._c[e]
            if e == 0:
                term = str(abs(c))
            else:
                mag = abs(c)
                var = "q" if e == 1 else f"q^{e}"
                term = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


ONE = LaurentPolynomial(1)
Q = LaurentPolynomial({1: 1})
QINV = LaurentPolynomial({-1: 1})
