"""Exact Hecke-algebra arithmetic and the Kazhdan-Lusztig oracle.

The Hecke algebra is taken over Z[q, q^-1] with the quadratic relation
H_s^2 = 1 + (q - q^-1) H_s.  verify_hecke_relations checks that a graph
defines a module of it on integer matrices evaluated at one integer q,
chosen large enough for the test to be exact.  The canonical basis
elements C_w are computed by the usual recursion
C_{sw} = C_s C_w - sum mu(y, w) C_y, which yields the coefficient
polynomials h_{y,w} in q^-1 Z[q^-1], the mu values as their q^-1
coefficients, and the classical polynomials P_{y,w} after a change of
variable.  None of this is consulted by the cell builder; it exists to
validate builder output on small ranks.

Graphs produced here store only weights that define arcs (the weight is
dropped when tau(u) is contained in tau(v)), since other entries do not
affect the module structure; this makes exact graph comparison against the
builder meaningful.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from . import rsk
from . import tableaux as tb
from . import wgraph as wg
from .laurent import LaurentPolynomial, ONE
from .permutations import (
    Permutation,
    all_permutations,
    apply_s,
    left_descents,
    length,
)

DEFAULT_ORACLE_MAX = 6


def oracle_bound() -> int:
    raw = os.environ.get("WCELL_ORACLE_MAX", DEFAULT_ORACLE_MAX)
    try:
        return int(raw)
    except ValueError:
        raise OracleBoundError(f"WCELL_ORACLE_MAX must be an integer, got {raw!r}") from None


class OracleBoundError(ValueError):
    pass


# ---------------------------------------------------------------------------
# W-graph module matrices and relation checking


def module_matrices(g: wg.SColoredGraph, q: int):
    """One sparse integer matrix A_s = q T_s per generator, evaluated at q.

    The column of v holds -v when s colours v, and otherwise
    q^2 v plus q mu(u, v) u for every u coloured by s.
    """
    mats = []
    for s in range(1, g.n):
        cols = []
        for v in g.vertices():
            if s in g.tau[v]:
                cols.append({v: -1})
            else:
                col = {u: q * w for u, w in g.column(v).items() if s in g.tau[u]}
                col[v] = q * q
                cols.append(col)
        mats.append(cols)
    return mats


def _compose(mat_a, mat_b):
    """Columns of A applied to each column of B."""
    out = []
    for col in mat_b:
        acc: dict[int, int] = {}
        for u, c in col.items():
            for x, e in mat_a[u].items():
                acc[x] = acc.get(x, 0) + e * c
        out.append(acc)
    return out


def _first_difference(mat_a, mat_b):
    """(u, v) for the first column v where A and B differ and its smallest row u."""
    for v, (ca, cb) in enumerate(zip(mat_a, mat_b)):
        if ca != cb:
            rows = [u for u in ca.keys() | cb.keys() if ca.get(u, 0) != cb.get(u, 0)]
            if rows:
                return (min(rows), v)
    return None


def verify_hecke_relations(g: wg.SColoredGraph) -> wg.CheckReport:
    """Quadratic, commuting and braid identities, checked exactly at one integer q.

    With A_s = q T_s the relations read A_s^2 = q^2 I + (q^2 - 1) A_s,
    A_s A_t = A_t A_s and A_s A_t A_s = A_t A_s A_t, and every entry of
    LHS - RHS is a polynomial in Z[q].  Measure a column by the sum of the
    absolute coefficients of its entries; this norm is submultiplicative.
    Every entry of A_s is a monomial, so the largest column norm L of all
    A_s (at least 1) is read off at q = 1, and each entry of LHS - RHS has
    absolute coefficient sum at most B = 2 L^3 + 2 L + 1.  A nonzero integer
    polynomial of degree d with coefficient sum at most B cannot vanish at
    an integer q > B: its lower terms sum to at most (B - 1) q^(d-1) < q^d
    in absolute value.  So evaluating at q = B + 1 is an exact test.

    A generator s that colours no vertex has A_s = q^2 I exactly, which
    satisfies the quadratic relation and commutes with every A_t, so those
    checks are skipped for it.  The braid relations are checked for every
    bonded pair: there A_s A_t A_s = q^4 A_t must still equal
    A_t A_s A_t = q^2 A_t^2.
    """
    ones = module_matrices(g, 1)
    norm = max((sum(map(abs, col.values())) for mat in ones for col in mat), default=1)
    q = 2 * norm**3 + 2 * norm + 2
    mats = module_matrices(g, q)
    coloured = sorted(set().union(*g.tau))
    bad = []
    for s in coloured:
        mat = mats[s - 1]
        expect = [{u: (q * q - 1) * e for u, e in col.items()} for col in mat]
        for v, col in enumerate(expect):
            col[v] += q * q
        witness = _first_difference(_compose(mat, mat), expect)
        if witness:
            bad.append(("quadratic", s, *witness))
    braids = {(s, s + 1) for s in range(1, g.n - 1)}
    commuting = {(s, t) for s in coloured for t in coloured if t - s >= 2}
    for s, t in sorted(braids | commuting):
        a, b = mats[s - 1], mats[t - 1]
        if t - s >= 2:
            kind, lhs, rhs = "commuting", _compose(a, b), _compose(b, a)
        else:
            kind, lhs, rhs = "braid", _compose(a, _compose(b, a)), _compose(b, _compose(a, b))
        witness = _first_difference(lhs, rhs)
        if witness:
            bad.append((kind, s, t, *witness))
    return wg.CheckReport("hecke-relations", not bad, tuple(bad[:10]))


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig table


@dataclass(frozen=True)
class KLTable:
    """Canonical-basis coefficients for S_n.

    ``h[w][y]`` is the coefficient of the standard basis element indexed by
    y in the canonical basis element of w, stored as a raw exponent ->
    coefficient dict.  ``mu_pairs[(y, w)]`` holds the nonzero mu values for
    y < w.
    """

    n: int
    h: dict
    mu_pairs: dict
    lengths: dict

    def mu(self, y: Permutation, w: Permutation) -> int:
        if y == w:
            return 0
        if self.lengths[y] > self.lengths[w]:
            y, w = w, y
        return self.mu_pairs.get((y, w), 0)

    def kl_polynomial(self, y: Permutation, w: Permutation) -> LaurentPolynomial:
        """Classical P_{y,w}, in the classical variable (nonnegative powers).

        Zero when y is not below w in the Bruhat order; P_{w,w} = 1.
        """
        if y == w:
            return ONE
        hy = self.h.get(w, {}).get(y)
        if hy is None:
            return LaurentPolynomial(0)
        delta = self.lengths[w] - self.lengths[y]
        coeffs = {}
        for e, c in hy.items():
            k2 = e + delta
            if k2 < 0 or k2 % 2:
                raise AssertionError("canonical coefficient fails the parity bound")
            coeffs[k2 // 2] = c
        return LaurentPolynomial(coeffs)

    def bruhat_below(self, w: Permutation):
        return self.h[w].keys()


def _shift_add(acc: dict, h: dict, k: int, scale: int = 1) -> None:
    for e, c in h.items():
        e2 = e + k
        s = acc.get(e2, 0) + scale * c
        if s:
            acc[e2] = s
        else:
            del acc[e2]


@lru_cache(maxsize=None)
def kl_table(n: int, max_n: int | None = None) -> KLTable:
    """Full canonical-basis table for S_n via the C_s C_w recursion."""
    bound = oracle_bound() if max_n is None else max_n
    if n > bound:
        raise OracleBoundError(
            f"n={n} exceeds the oracle bound {bound}; raise WCELL_ORACLE_MAX to override"
        )
    elements = sorted(all_permutations(n), key=length)
    lengths = {w: length(w) for w in elements}
    h: dict[Permutation, dict[Permutation, dict[int, int]]] = {}
    mu_pairs: dict[tuple[Permutation, Permutation], int] = {}
    for w in elements:
        lw = lengths[w]
        if lw == 0:
            h[w] = {w: {0: 1}}
            continue
        s = min(left_descents(w))
        v = apply_s(s, w)
        cv = h[v]
        acc: dict[Permutation, dict[int, int]] = {}
        for y, hy in cv.items():
            sy = apply_s(s, y)
            up = lengths[sy] > lengths[y]
            dst = acc.setdefault(sy, {})
            _shift_add(dst, hy, 0)
            if not dst:
                del acc[sy]
            dst = acc.setdefault(y, {})
            _shift_add(dst, hy, -1 if up else 1)
            if not dst:
                del acc[y]
        for y, hy in cv.items():
            m = hy.get(-1, 0)
            if m and lengths[apply_s(s, y)] < lengths[y]:
                for z, hz in h[y].items():
                    dst = acc.setdefault(z, {})
                    _shift_add(dst, hz, 0, -m)
                    if not dst:
                        del acc[z]
        if acc.get(w) != {0: 1}:
            raise AssertionError("canonical recursion lost unitriangularity")
        h[w] = acc
        for y, hy in acc.items():
            m = hy.get(-1, 0)
            if m and y != w:
                mu_pairs[(y, w)] = m
    return KLTable(n, h, mu_pairs, lengths)


# ---------------------------------------------------------------------------
# oracle graphs


def _live_mu(tau, mu):
    return {
        (u, v): w for (u, v), w in mu.items() if w and not tau[u] <= tau[v]
    }


def kl_left_cell_graph(lam, max_n: int | None = None) -> wg.SColoredGraph:
    """The left-cell graph on the reading words of STD(lam), labelled by tableaux.

    Vertices follow the lexicographic order of the tableaux, colours are
    left descent sets, and weights come from the mu table, symmetrised and
    then restricted to pairs that actually define arcs.
    """
    lam = tb.check_partition(lam)
    n = sum(lam)
    table = kl_table(n, max_n)
    tabs = tb.enumerate_std(lam)
    words = [tb.word(t) for t in tabs]
    tau = [left_descents(w) for w in words]
    mu: dict[tuple[int, int], int] = {}
    for a in range(len(tabs)):
        for b in range(len(tabs)):
            if a == b:
                continue
            m = table.mu(words[a], words[b])
            if m:
                mu[(a, b)] = m
    labels = tuple((0, t) for t in tabs)
    return wg.SColoredGraph(n, tau, _live_mu(tau, mu), labels)


def kl_regular_graph(n: int, max_n: int | None = None) -> wg.SColoredGraph:
    """The full left W-graph of S_n, labelled by Robinson-Schensted pairs.

    Vertex labels are (recording-class index, insertion tableau); weights
    are symmetrised mu values restricted to arcs.
    """
    table = kl_table(n, max_n)
    elements = sorted(all_permutations(n), key=lambda w: w.images)
    tau = [left_descents(w) for w in elements]
    pairs = [rsk.rs(w) for w in elements]
    q_index: dict = {}
    for _p, qtab in pairs:
        q_index.setdefault(qtab, len(q_index))
    labels = tuple((q_index[qtab], p) for p, qtab in pairs)
    mu: dict[tuple[int, int], int] = {}
    for a, wa in enumerate(elements):
        for b, wb in enumerate(elements):
            if a == b:
                continue
            m = table.mu(wa, wb)
            if m:
                mu[(a, b)] = m
    return wg.SColoredGraph(n, tau, _live_mu(tau, mu), labels)


def graphs_equal_under(g1: wg.SColoredGraph, g2: wg.SColoredGraph, bijection) -> bool:
    """Exact equality of colours and weights under a vertex bijection g1 -> g2."""
    if g1.num_vertices != g2.num_vertices:
        return False
    image = [bijection[v] for v in g1.vertices()]
    if sorted(image) != list(g2.vertices()):
        raise ValueError("not a bijection onto the second vertex set")
    if g1.n != g2.n:
        return False
    for v in g1.vertices():
        if g1.tau[v] != g2.tau[image[v]]:
            return False
    mapped = {(image[u], image[v]): w for (u, v), w in g1.mu.items()}
    return mapped == g2.mu
