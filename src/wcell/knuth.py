"""Dual Knuth moves and the pair machinery built on them.

A dual Knuth move exchanges two consecutive entries of a standard tableau
subject to a descent-pattern constraint; these moves are exactly the simple
edges of the cell graphs built elsewhere in this package.  On top of the
moves this module provides k-neighbours, restriction numbers of tableau
pairs, favourable pairs with the witness set F(u, t), approximates A(u, t),
and paired dual Knuth equivalence classes.  The k-neighbour and the
canonical favourable pair are decided on column words (neighbour_swap,
favourable_prefix), which the cell builder calls directly.

The cell builder and molecule typing do not enumerate moves here: they read
the dual Knuth edges off the ascent swaps of column words in
builder.cell_index.  dk_moves_from, on tableau objects, serves the lemma
code (paired_classes, and rsk.dual_equivalent on skew shapes) and the tests.
"""

from __future__ import annotations

from typing import NamedTuple

from . import tableaux as tb
from .tableaux import StandardTableau, SkewShape


class DKMove(NamedTuple):
    """A directed dual Knuth move source -> target, target = s_index * source."""

    source: StandardTableau
    target: StandardTableau
    kind: int  # 1 or 2
    index: int


def _move_kinds(w, r: int):
    """Kinds i such that exchanging the ascent w[r-1] < w[r] of a column word
    is a move ->*i, where k is the entry of w[r-1]: the descent pattern at
    {k-1, k} flips from {k-1} to {k} (kind 1), or at {k, k+1} from {k+1} to
    {k} (kind 2).  A descent e has col(e) >= col(e+1)."""
    kinds = []
    if r > 1 and w[r - 1] <= w[r - 2] < w[r]:
        kinds.append(1)
    if r + 1 < len(w) and w[r - 1] < w[r + 1] <= w[r]:
        kinds.append(2)
    return kinds


def dk_moves_from(t: StandardTableau) -> list[DKMove]:
    """All dual Knuth moves with t as source or target.

    A move at k starts from the tableau where k is an ascent, so each
    strong pair is tested once, on the letters of that tableau's word."""
    moves = []
    dd = t.descent_data()
    for k in sorted(dd.sa | dd.sd):
        other = tb.swap_adjacent(t, k)
        r = k - t.offset
        source, target = (t, other) if t.column_word[r - 1] < t.column_word[r] else (other, t)
        for kind in _move_kinds(source.column_word, r):
            moves.append(DKMove(source, target, kind, k))
    return moves


def is_dk_edge(u: StandardTableau, t: StandardTableau) -> bool:
    """Whether u and t are related by a single dual Knuth move."""
    if u.shape != t.shape or u.offset != t.offset:
        return False
    uw, tw = u.column_word, t.column_word
    diff = [r for r, (a, b) in enumerate(zip(uw, tw)) if a != b]
    if len(diff) != 2 or diff[1] != diff[0] + 1:
        return False
    # within one shape, two consecutive differing letters are an exchange
    r = diff[1]
    return bool(_move_kinds(uw if uw[r - 1] < uw[r] else tw, r))


def k_neighbour(t: StandardTableau, k: int) -> StandardTableau:
    """The unique adjacent tableau with the opposite descent pattern at {k, k+1}.

    Requires exactly one of k, k+1 to be a descent of t, and k+2 to lie in
    the target of t.
    """
    if len(t.descents & {k, k + 1}) != 1:
        raise ValueError(f"need exactly one of {k},{k+1} in the descent set")
    if not (t.min_entry <= k and k + 2 <= t.max_entry):
        raise ValueError(f"entries {k},{k+1},{k+2} must all lie in the target")
    return tb.swap_adjacent(t, t.offset + neighbour_swap(t.column_word, k - t.offset))


def neighbour_swap(cols, k: int) -> int:
    """The entry, k or k+1, that k_neighbour exchanges with its successor.

    cols[e - 1] is the column of the e-th entry; only the columns of the
    entries k, k+1 and k+2 are read.
    """
    ck, ck1, ck2 = cols[k - 1], cols[k], cols[k + 1]
    if (ck < ck2 <= ck1) or (ck1 < ck2 <= ck):
        return k
    if (ck1 <= ck < ck2) or (ck2 <= ck < ck1):
        return k + 1
    raise ValueError(f"no neighbour at index {k}")  # unreachable for valid input


# ---------------------------------------------------------------------------
# pairs


def restriction_number(u: StandardTableau, t: StandardTableau) -> int:
    """Largest k such that the entries up to k occupy the same boxes in u and t."""
    if u.size != t.size or u.offset != t.offset:
        raise ValueError("pair must share the same target")
    for k, (a, b) in enumerate(zip(u.boxes, t.boxes)):
        if a != b:
            return k
    return u.size


def is_favourable(u: StandardTableau, t: StandardTableau) -> bool:
    """Whether the restriction number lies in the descent-set symmetric difference."""
    k = restriction_number(u, t)
    if k == u.size:
        return False
    return (k + u.offset) in (u.descents ^ t.descents)


def _between_boxes(xi, bu, bt):
    """xi-removable boxes lying between the addable boxes bu and bt."""
    g, p = bu
    h, q = bt
    out = []
    for d, m in tb.removable_boxes(xi):
        if (g > d >= h and p <= m < q) or (h > d >= g and q <= m < p):
            out.append((d, m))
    return out


def _graft(prefix: StandardTableau, t: StandardTableau, k: int) -> StandardTableau:
    """Replace the first k letters of t's word by prefix's (same shape below k)."""
    return StandardTableau(
        t.shape, prefix.column_word + t.column_word[k:], t.offset, _checked=True
    )


def _prefix_with_top(xi, box, fill) -> StandardTableau:
    """Fill [xi] minus {box} by `fill`, then put the top entry at box."""
    rest = list(xi)
    rest[box[1] - 1] -= 1
    base = fill(tb._trim(rest))
    return StandardTableau(SkewShape(xi), base.column_word + (box[1],), 0, _checked=True)


def _prefix_shape(uw, tw):
    """(k, xi, boxes) for the column words of two distinct tableaux.

    k is the restriction number: the words agree exactly on their first k
    letters, which fill the shape xi (column heights).  boxes are the
    removable boxes of xi between the boxes of k+1 in the two tableaux, in
    increasing column order.
    """
    k = next((e for e, (a, b) in enumerate(zip(uw, tw)) if a != b), None)
    if k is None:
        raise ValueError("the pair must consist of two distinct tableaux")
    xi = [0] * max(uw + tw)
    for c in uw[:k]:
        xi[c - 1] += 1
    p, q = uw[k], tw[k]
    return k, xi, _between_boxes(xi, (xi[p - 1] + 1, p), (xi[q - 1] + 1, q))


def favourable_set(u: StandardTableau, t: StandardTableau):
    """All favourable pairs obtained from (u, t) by rearranging the common prefix.

    Each member (v, x) keeps the parts of u and t above the restriction
    number k, agrees with them on a common prefix that places k on a
    removable box between the boxes of k+1, and is favourable.  The pair
    (u, t) itself is a member exactly when it is favourable.
    """
    if u == t:
        raise ValueError("favourable_set needs a pair of distinct tableaux")
    k, xi, boxes = _prefix_shape(u.column_word, t.column_word)
    prefixes = tb.enumerate_std(xi)
    out = []
    for box in boxes:
        for wp in prefixes:
            if wp.col_of(k) == box[1]:  # k, the largest entry, is on xi's box of that column
                out.append((_graft(wp, u, k), _graft(wp, t, k)))
    return out


def favourable_prefix(uw, tw):
    """(k, prefix): the canonical common prefix of the favourable pair of two words.

    uw and tw are the column words of two distinct tableaux and k is their
    restriction number.  prefix is the column word of a filling of the
    shape of their first k entries: k goes on the between-box of smallest
    column, and the rest is filled minimally.  Grafting prefix onto uw[k:]
    and tw[k:] gives the canonical favourable pair.
    """
    k, xi, boxes = _prefix_shape(uw, tw)
    if not boxes:
        raise ValueError("no removable box between the two addable boxes")
    m = boxes[0][1]
    xi[m - 1] -= 1
    return k, tuple(c for c, h in enumerate(xi, 1) for _ in range(h)) + (m,)


def favourable_rep(u: StandardTableau, t: StandardTableau):
    """The canonical member of favourable_set(u, t); see favourable_prefix."""
    if u == t:
        raise ValueError("favourable_rep needs a pair of distinct tableaux")
    k, prefix = favourable_prefix(u.column_word, t.column_word)
    wp = tb.from_column_word(prefix)
    return _graft(wp, u, k), _graft(wp, t, k)


def approximates(u: StandardTableau, t: StandardTableau):
    """Members of favourable_set placing k in column col_t(k+1) - 1.

    Nonempty exactly when col_u(k+1) < col_t(k+1), where k is the
    restriction number of the pair.
    """
    if u == t:
        raise ValueError("approximates needs a pair of distinct tableaux")
    k = restriction_number(u, t)
    e = u.offset + k
    if u.col_of(e + 1) >= t.col_of(e + 1):
        return []
    target_col = t.col_of(e + 1) - 1
    return [
        (v, x) for v, x in favourable_set(u, t) if x.col_of(e) == target_col
    ]


def _approximate_by_fill(u, t, fill):
    k = restriction_number(u, t)
    e = u.offset + k
    if u.col_of(e + 1) >= t.col_of(e + 1):
        raise ValueError("pair has no approximates")
    xi = tb.restrict_leq(u, e).shape.outer
    m = t.col_of(e + 1) - 1
    box = (xi[m - 1], m)
    wp = _prefix_with_top(xi, box, fill)
    return _graft(wp, u, k), _graft(wp, t, k)


def minimal_approximate(u: StandardTableau, t: StandardTableau):
    """The approximate whose prefix below k is the minimal filling."""
    return _approximate_by_fill(u, t, tb.tau_min)


def maximal_approximate(u: StandardTableau, t: StandardTableau):
    """The approximate whose prefix below k is the row-by-row filling."""
    return _approximate_by_fill(u, t, tb.tau_max)


# ---------------------------------------------------------------------------
# paired classes


def _moves_by_signature(t: StandardTableau):
    """(kind, index, direction) -> other endpoint, for all moves at t."""
    out = {}
    for mv in dk_moves_from(t):
        if mv.source == t:
            out[(mv.kind, mv.index, "out")] = mv.target
        else:
            out[(mv.kind, mv.index, "in")] = mv.source
    return out


def paired_classes(mu, lam):
    """Partition of STD(mu) x STD(lam) under simultaneous dual Knuth moves.

    Two pairs are equivalent when one maps to the other by dual Knuth moves
    of equal kind and index applied to both components at once.  Intended
    for small-n use; the class graph is explored by breadth-first search.
    """
    mu, lam = tuple(mu), tuple(lam)
    if sum(mu) != sum(lam):
        raise ValueError("shapes must have equal size")
    left = tb.enumerate_std(mu)
    right = tb.enumerate_std(lam)
    pending = {(u, t) for u in left for t in right}
    classes = []
    while pending:
        seed = next(iter(pending))
        block = set()
        frontier = [seed]
        while frontier:
            pair = frontier.pop()
            if pair in block:
                continue
            block.add(pair)
            u, t = pair
            sig_u = _moves_by_signature(u)
            sig_t = _moves_by_signature(t)
            for sig, v in sig_u.items():
                x = sig_t.get(sig)
                if x is not None and (v, x) not in block:
                    frontier.append((v, x))
        pending -= block
        classes.append(frozenset(block))
    return classes
