"""Construction of the left-cell graph on STD(lam) without KL polynomials.

The graph has one vertex per standard tableau of shape lam, coloured by its
descent set.  Three classes of weights are populated:

  (a) mu(u, t) = mu(t, u) = 1 for every dual Knuth move between u and t
      (the simple edges);
  (b) mu(u, t) = 1, mu(t, u) = 0 whenever u = s_i t > t with D(t) strictly
      contained in D(u) (the covers that are not dual Knuth moves);
  (c) for every probable pair -- u < t in dominance with D(t) strictly
      contained in D(u) -- the weight is forced by the polygon rule, and
      mu_probable evaluates the forcing identity.

Every other weight is zero.  Tableaux are used only to enumerate and label
the vertices 0..N-1, in increasing lexicographic order.  A CellIndex holds
the column word of each vertex (the column of each entry 1..n, which
determines the tableau), the dict from word to vertex, the descent bitmasks
and the one weight table, cols[t] = {u: mu(u, t)}, the layout of
SColoredGraph.column.  The rest runs on these integers: s_i t is the word
with the letters of i and i+1 exchanged.

The probable-pair identity refers only to weights whose target is
lexicographically smaller than t, once the pair is replaced by its
canonical favourable representative, so the table is filled one lex-column
at a time.  Within a column the pairs are independent.
"""

from __future__ import annotations

from typing import NamedTuple

from . import knuth
from . import tableaux as tb
from . import wgraph as wg


class CellIndex(NamedTuple):
    words: list[tuple[int, ...]]  # column word of each vertex
    index: dict[tuple[int, ...], int]  # vertex of each word
    masks: list[int]  # bit d set when d is a descent of the vertex
    cols: list[dict[int, int]]  # cols[t][u] = mu(u, t); absent entries are zero


def _swap(word, e: int):
    """The word of s_e t: the letters of the entries e and e+1 exchanged."""
    return word[: e - 1] + (word[e], word[e - 1]) + word[e + 1 :]


def cell_index(tabs) -> CellIndex:
    """The index of the tableaux tabs, with the weights (a) and (b) filled in.

    Each ascent i of each vertex t is tried once.  When the word with the
    letters of i and i+1 exchanged is a vertex u = s_i t, D(u) is D(t) with
    i added and possibly i - 1 or i + 1 taken away:
      - t loses i - 1: {i-1} flips to {i} on {i-1, i}, a first-kind move;
      - t loses i + 1: {i+1} flips to {i} on {i, i+1}, a second-kind move;
      - t loses nothing: D(t) is strictly inside D(u), a cover.
    A move gives mu(u, t) = mu(t, u) = 1, a cover mu(u, t) = 1 only.  Every
    dual Knuth move has i as an ascent at exactly one end, so each edge is
    seen once.
    """
    words = [t.column_word for t in tabs]
    index = {w: v for v, w in enumerate(words)}
    masks = [sum(1 << d for d in t.descents) for t in tabs]
    cols: list[dict[int, int]] = [{} for _ in words]
    for it, w in enumerate(words):
        for i in range(1, len(w)):
            if w[i - 1] < w[i]:
                iu = index.get(_swap(w, i))
                if iu is not None:
                    cols[it][iu] = 1
                    if masks[it] & ~masks[iu]:
                        cols[iu][it] = 1
    return CellIndex(words, index, masks, cols)


def mu_probable(iu: int, it: int, cell: CellIndex, rep=None) -> int:
    """Weight mu(iu, it) of a probable pair of vertices, via the polygon-rule identity.

    The pair is replaced by its favourable representative (iu0, it0), whose
    words graft knuth.favourable_prefix onto the tails of the two words.
    With i the restriction number and j the largest strong descent of t0,
    the identity eliminates the unknown from the equality of alternating
    path sums of length two (when the generators i and j commute, and in
    the commuting j - i = 1 subcase) or of length three (otherwise).  Every
    weight it consults lies in a column below it, so it is already final.

    A member of knuth.favourable_set may be passed as a vertex pair rep;
    the result does not depend on the choice.
    """
    words, index, masks, cols = cell
    uw, tw = words[iu], words[it]
    i, prefix = knuth.favourable_prefix(uw, tw)
    iu0, it0 = rep if rep is not None else (index[prefix + uw[i:]], index[prefix + tw[i:]])
    t0 = words[it0]
    j = max((e for e in range(i + 1, len(t0)) if t0[e - 1] > t0[e]), default=None)
    if j is None:
        raise AssertionError("restriction number must precede max strong descent")
    iv = index[_swap(t0, j)]
    if j - i >= 2 or t0[j - 2] < t0[j]:
        if iv >= it:
            raise AssertionError("schedule violation: column of s_j t0 not final")
        base, plus, minus, skip, neighbour = iv, i, j, it0, False
    else:
        if t0[j - 2] == t0[j]:
            raise AssertionError("entries j-1 and j+1 cannot share a column here")
        iw = index[_swap(words[iv], j - 1)]
        if iw >= it:
            raise AssertionError("schedule violation: column of s_{j-1} s_j t0 not final")
        base, plus, minus, skip, neighbour = iw, j, j - 1, iv, True
    both = (1 << plus) | (1 << minus)
    total = 0
    for x, w in cols[base].items():
        pattern = masks[x] & both
        if pattern == 1 << plus:
            sign = 1
        elif pattern == 1 << minus and x != skip:
            sign = -1
        else:
            continue
        if neighbour:
            x = index[_swap(words[x], knuth.neighbour_swap(words[x], j - 1))]
        if x >= it:
            raise AssertionError(
                f"schedule violation: lookup of column {x} while building column {it}"
            )
        total += sign * w * cols[x].get(iu0, 0)
    return total


def probable_pairs(cell: CellIndex) -> list[tuple[int, int]]:
    """Vertex pairs (u, t) with u < t in dominance and D(t) strictly inside D(u).

    Grouped by target, targets in increasing lexicographic order.
    """
    words, masks = cell.words, cell.masks
    by_mask: dict[int, list[int]] = {}
    for v, mask in enumerate(masks):
        by_mask.setdefault(mask, []).append(v)
    n = len(words[0]) if words else 0
    universe = ((1 << n) - 1) & ~1  # bits 1..n-1
    out = []
    for it, tw in enumerate(words):
        mask = masks[it]
        free = universe & ~mask
        sub = free
        while sub:
            for iu in by_mask.get(mask | sub, ()):
                if tb.column_dominance_leq(words[iu], tw):
                    out.append((iu, it))
            sub = (sub - 1) & free
    return out


def build_cell_graph(lam) -> wg.SColoredGraph:
    """The W-graph of the left cell attached to the partition lam.

    Vertices are STD(lam) in increasing lexicographic order, labelled
    (0, tableau); the output is strongly connected, satisfies all four
    combinatorial rules, and is ordered.
    """
    lam = tb.check_partition(lam) if lam else ()
    tabs = tuple(tb.enumerate_std(lam))
    cell = cell_index(tabs)
    # (c) probable pairs, one lex-column at a time
    for iu, it in probable_pairs(cell):
        w = mu_probable(iu, it, cell)
        if w:
            cell.cols[it][iu] = w
    mu = {(u, t): w for t, col in enumerate(cell.cols) for u, w in col.items()}
    labels = tuple((0, t) for t in tabs)
    return wg.SColoredGraph(sum(lam) if lam else 1, [t.descents for t in tabs], mu, labels)
