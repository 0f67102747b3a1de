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
determines the tableau), the same word as one integer (tb.pack) and the
dict from that integer to the vertex, the descent bitmasks (d is a descent
when col(d) >= col(d+1)), which also give the colours, and the one weight
table, cols[t] = {u: mu(u, t)}, the weights into t, with
the parity and largest strong descent of each vertex and the two memos of
mu_probable.  The rest runs on these integers: s_i t is the word with the
letters of i and i+1 exchanged, tb.swap_packed of its integer.

The probable-pair identity refers only to weights whose target is
lexicographically smaller than t, once the pair is replaced by its
canonical favourable representative, so the table is filled one lex-column
at a time.  Within a column the pairs are independent.  Lex order refines
dominance, so the scan for the pairs of t reads only the vertices before t.
The terms of the identity depend only on t, its representative t0 and the
restriction number, not on u, so mu_probable makes them once per such
group and keeps them only while it builds the column of t.

Only probable pairs of opposite parity are evaluated.  The parity of a
vertex is the number of entry pairs a < b with col(b) <= col(a), mod 2: the
length of its reading word.  No weight joins two vertices of equal parity:
  - the graph is a KL cell, hence admissible, hence bipartite (Stembridge);
  - s_i t exchanges the columns of the adjacent entries i, i+1, which
    differ, so it changes that count by one: (a) and (b) flip the parity;
  - the dual Knuth moves connect the cell, so parity is its only bipartition.
Skipping such a pair leaves the zero that mu_probable would compute, so the
graph is unchanged; a test evaluates every such pair through n = 9.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple

from . import knuth
from . import tableaux as tb
from . import wgraph as wg


class CellIndex(NamedTuple):
    """The integer index of one cell, read from the column words of its tableaux alone.

    packed holds each word as tb.pack gives it, in fields of
    tb.letter_width(words) bits.  prefixes and groups are memos of
    mu_probable.
    """

    words: list[tuple[int, ...]]  # column word of each vertex
    packed: list[int]  # tb.pack of each word
    vertex: dict[int, int]  # vertex of each packed word
    width: int  # bits of one letter's field
    masks: list[int]  # bit d set when d is a descent: word[d - 1] >= word[d]
    cols: list[dict[int, int]]  # cols[t][u] = mu(u, t); absent entries are zero
    parity: list[int]  # length of the reading word of each vertex, mod 2
    strong: list[int]  # largest strong descent e, col(e) > col(e+1), of each vertex; 0 if none
    # packed uw[:i+1] + tw[i:i+1] -> packed knuth.favourable_prefix(uw, tw) shifted
    # above the letters from i on, i the restriction number
    prefixes: dict[int, int]
    # {it: {(it0, i): terms}}: the terms of _group_terms for one target it only
    groups: dict[int, dict[tuple[int, int], list[tuple[dict[int, int], int]]]]


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
    width = tb.letter_width(words)
    packed = [tb.pack(w, width) for w in words]
    vertex = {p: v for v, p in enumerate(packed)}
    masks = [sum(1 << d for d in range(1, len(w)) if w[d - 1] >= w[d]) for w in words]
    cols: list[dict[int, int]] = [{} for _ in words]
    parity, strong = [], []
    for it, w in enumerate(words):
        for i in range(1, len(w)):
            if w[i - 1] < w[i]:
                iu = vertex.get(tb.swap_packed(packed[it], w, i, width))
                if iu is not None:
                    cols[it][iu] = 1
                    if masks[it] & ~masks[iu]:
                        cols[iu][it] = 1
        seen = [0] * (len(w) + 2)  # seen[c]: letters c so far
        pairs = 0
        for c in w:
            pairs += sum(seen[c:])
            seen[c] += 1
        parity.append(pairs & 1)
        strong.append(next((e for e in range(len(w) - 1, 0, -1) if w[e - 1] > w[e]), 0))
    return CellIndex(words, packed, vertex, width, masks, cols, parity, strong, {}, {})


def mu_probable(iu: int, it: int, cell: CellIndex) -> int:
    """Weight mu(iu, it) of a probable pair of vertices, via the polygon-rule identity.

    The pair is replaced by its favourable representative (iu0, it0), whose
    words graft knuth.favourable_prefix onto the tails of the two words.
    With i the restriction number and j the largest strong descent of t0,
    the identity eliminates the unknown from the equality of alternating
    path sums of length two (when the generators i and j commute, and in
    the commuting j - i = 1 subcase) or of length three (otherwise).  Every
    weight it consults lies in a column below it, so it is already final.

    Everything up to the representative runs on the packed words.  The
    letter i is the field of the highest set bit of the XOR of the two, and
    tail is the bits of the letters from i on.  The prefix depends only on
    the words up to and including their first difference, so it is
    memoised in cell.prefixes under those letters, packed, and stored
    shifted above tail: each representative is that prefix OR the tail bits
    of its word, one lookup in cell.vertex.

    The identity sums mu(u0, x) over signed terms that depend only on the
    group (t, t0, i): _group_terms makes them, and runs the schedule
    assertions, once per group, into cell.groups.  That memo holds the
    groups of one target: a call for another target empties it first, so
    it stays one column's size whatever the order of the calls.  Only the
    sum over the terms is made per call.
    """
    width = cell.width
    pu, pt = cell.packed[iu], cell.packed[it]
    tail = -(-(pu ^ pt).bit_length() // width) * width
    i = len(cell.words[it]) - tail // width
    head = tail - width  # the bits of the letters after i
    key = (pu >> head) << width | (pt >> head) & ((1 << width) - 1)
    high = cell.prefixes.get(key)
    if high is None:
        prefix = knuth.favourable_prefix(cell.words[iu], cell.words[it])[1]
        high = cell.prefixes[key] = tb.pack(prefix, width) << tail
    low = (1 << tail) - 1
    iu0, it0 = cell.vertex[high | pu & low], cell.vertex[high | pt & low]
    groups = cell.groups.get(it)
    if groups is None:
        cell.groups.clear()
        groups = cell.groups[it] = {}
    terms = groups.get((it0, i))
    if terms is None:
        terms = groups[it0, i] = _group_terms(it, it0, i, cell)
    total = 0
    for col, w in terms:
        total += w * col.get(iu0, 0)
    return total


def _group_terms(it: int, it0: int, i: int, cell: CellIndex) -> list[tuple[dict[int, int], int]]:
    """The terms (cols[x], sign * mu(x, base)) of mu_probable's identity for
    the target it, its representative it0 and the restriction number i:
    mu(u0, t) is the sum of weight * col.get(u0, 0) over them.

    t0 agrees with t past i and a strong descent e > i reads only letters
    past i, so j is the largest strong descent of t, cell.strong[it], when
    that exceeds i.  Every schedule assertion depends only on (it, it0, i).
    """
    words, packed, vertex, width = cell.words, cell.packed, cell.vertex, cell.width
    masks, cols = cell.masks, cell.cols
    t0 = words[it0]
    j = cell.strong[it]
    if j <= i:
        raise AssertionError("restriction number must precede max strong descent")
    iv = vertex[tb.swap_packed(packed[it0], t0, j, width)]
    if j - i >= 2 or t0[j - 2] < t0[j]:
        if iv >= it:
            raise AssertionError("schedule violation: column of s_j t0 not final")
        base, plus, minus, skip, neighbour = iv, i, j, it0, False
    else:
        if t0[j - 2] == t0[j]:
            raise AssertionError("entries j-1 and j+1 cannot share a column here")
        iw = vertex[tb.swap_packed(packed[iv], words[iv], j - 1, width)]
        if iw >= it:
            raise AssertionError("schedule violation: column of s_{j-1} s_j t0 not final")
        base, plus, minus, skip, neighbour = iw, j, j - 1, iv, True
    both = (1 << plus) | (1 << minus)
    terms = []
    for x, w in cols[base].items():
        pattern = masks[x] & both
        if pattern == 1 << plus:
            sign = 1
        elif pattern == 1 << minus and x != skip:
            sign = -1
        else:
            continue
        if neighbour:
            x = vertex[tb.swap_packed(packed[x], words[x], knuth.neighbour_swap(words[x], j - 1), width)]
        if x >= it:
            raise AssertionError(
                f"schedule violation: lookup of column {x} while building column {it}"
            )
        terms.append((cols[x], sign * w))
    return terms


def probable_pairs(cell: CellIndex) -> list[tuple[int, int]]:
    """Vertex pairs (u, t) with u < t in dominance and D(t) strictly inside D(u).

    Grouped by target, targets in increasing lexicographic order.  The scan
    walks, for each t, the descent masks that occur and strictly contain
    D(t), in decreasing order, and each mask's vertices in increasing order.
    Lex order refines dominance, so no u after t lies below t: each list is
    read only up to t.  Dominance is one subtraction on the packed prefix
    counts of tb.dominance_keys.
    """
    masks = cell.masks
    by_mask: dict[int, list[int]] = {}
    for v, mask in enumerate(masks):
        by_mask.setdefault(mask, []).append(v)
    present = sorted(by_mask)
    above: dict[int, list[list[int]]] = {}  # the lists of the masks strictly above each mask
    keys, guard = tb.dominance_keys(cell.words)
    high = [key | guard for key in keys]
    out = []
    for it, mask in enumerate(masks):
        lists = above.get(mask)
        if lists is None:
            larger = present[bisect_right(present, mask) :]  # a strict superset is larger
            lists = above[mask] = [by_mask[m] for m in reversed(larger) if m & mask == mask]
        kt = keys[it]
        for vs in lists:
            out.extend(
                [(iu, it) for iu in vs[: bisect_left(vs, it)] if (high[iu] - kt) & guard == guard]
            )
    return out


def build_cell_graph(lam) -> wg.SColoredGraph:
    """The W-graph of the left cell attached to the partition lam.

    Vertices are STD(lam) in increasing lexicographic order, labelled
    (0, tableau); the output is strongly connected, satisfies all four
    combinatorial rules, and is ordered.
    """
    lam = tb.check_partition(lam)
    tabs = tuple(tb.enumerate_std(lam))
    cell = cell_index(tabs)
    # (c) probable pairs of opposite parity, one lex-column at a time
    parity = cell.parity
    for iu, it in probable_pairs(cell):
        if parity[iu] != parity[it]:
            w = mu_probable(iu, it, cell)
            if w:
                cell.cols[it][iu] = w
    mu = {(u, t): w for t, col in enumerate(cell.cols) for u, w in col.items()}
    n = max(sum(lam), 1)
    # one colour per distinct descent mask, shared by its vertices
    colour = {m: frozenset(wg._bits(m)) for m in set(cell.masks)}
    return wg.SColoredGraph(n, map(colour.__getitem__, cell.masks), mu, tuple((0, t) for t in tabs))
