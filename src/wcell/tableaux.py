"""Partitions, skew shapes and standard tableaux in the column convention.

Shape parts count *columns*: the diagram of ``(3, 2)`` has three boxes in
column 1 and two boxes in column 2, and ``(i, j)`` is the i-th box of the
j-th column.  A standard tableau has entries increasing down each column and
along each row, and its reading word concatenates the columns from left to
right, each column read from bottom to top.  A standard tableau stores
only its shape, its offset and its column word, the column of each entry,
smallest entry first; since entries grow down a column, its boxes, rows,
text and descents are read off that word and the inner heights of its
shape.  Shapes and tableaux are NamedTuple values: their checks run in
``__new__`` and the tuple gives equality, hashing and pickling.

Because parts index columns, the dominance order used throughout is the
*reverse* of the row-convention textbook order: ``mu <= lam`` (lam dominates
mu) holds when every prefix sum of lam is at most the corresponding prefix
sum of mu.  The single-column shape ``(n,)`` is the unique minimum and the
single-row shape ``(1,) * n`` is the unique maximum.  Display helpers print
internal rows, so the familiar row picture of a tableau corresponds directly
to ``text()`` output: the minimal tableau of shape ``(2, 1)`` prints as
``"1 3/2"``.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from itertools import chain, compress, count
from math import factorial, inf
from operator import ge, gt, itemgetter, lt, mul
from typing import NamedTuple

from .permutations import Permutation, inverse, multiply

Partition = tuple[int, ...]


# ---------------------------------------------------------------------------
# partitions


def is_partition(parts) -> bool:
    parts = tuple(parts)
    return all(isinstance(p, int) and p > 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def check_partition(parts) -> Partition:
    parts = tuple(parts)
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts}")
    return parts


def partitions_of(n: int):
    """All partitions of n, in decreasing lexicographic order.

    >>> partitions_of(4)
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[Partition] = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return out


def conjugate(lam: Partition) -> Partition:
    """Transpose of the diagram.

    >>> conjugate((3, 1))
    (2, 1, 1)
    """
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def hook_count(lam: Partition) -> int:
    """Number of standard tableaux of shape lam, by the hook length formula."""
    lam = check_partition(lam)
    n = sum(lam)
    if n == 0:
        return 1
    hooks = []
    for j, height in enumerate(lam, start=1):
        for i in range(1, height + 1):
            below = height - i
            right = sum(1 for h in lam[j:] if h >= i)
            hooks.append(below + right + 1)
    return factorial(n) // reduce(mul, hooks, 1)


def dominance_leq(mu, lam) -> bool:
    """mu <= lam in the column-convention dominance order.

    lam dominates mu exactly when every prefix sum of lam is at most the
    corresponding prefix sum of mu.  (Reversed relative to the textbook
    row-convention order; see the module docstring.)
    """
    mu, lam = tuple(mu), tuple(lam)
    if sum(mu) != sum(lam):
        raise ValueError(f"sizes differ: |{mu}| != |{lam}|")
    psum_mu = psum_lam = 0
    for k in range(max(len(mu), len(lam))):
        psum_mu += mu[k] if k < len(mu) else 0
        psum_lam += lam[k] if k < len(lam) else 0
        if psum_lam > psum_mu:
            return False
    return True


def _trim(parts) -> tuple[int, ...]:
    parts = list(parts)
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def removable_boxes(lam: Partition):
    """Boxes (i, j) whose removal leaves a partition diagram."""
    out = []
    for j in range(1, len(lam) + 1):
        nxt = lam[j] if j < len(lam) else 0
        if lam[j - 1] > nxt:
            out.append((lam[j - 1], j))
    return out


# ---------------------------------------------------------------------------
# shapes and tableaux


class _SkewShapeFields(NamedTuple):
    outer: Partition
    inner: Partition


class SkewShape(_SkewShapeFields):
    """Outer/inner partition pair; the boxes are [outer] minus [inner].

    A NamedTuple of exactly ``(outer, inner)``, trailing zero parts trimmed:
    immutable, hashable and equal by its two fields.
    """

    __slots__ = ()

    def __new__(cls, outer: Partition, inner: Partition = ()):
        outer, inner = _trim(outer), _trim(inner)
        if not is_partition(outer):
            raise ValueError(f"bad outer shape {outer}")
        if not is_partition(inner):
            raise ValueError(f"bad inner shape {inner}")
        if len(inner) > len(outer) or any(map(gt, inner, outer)):
            raise ValueError(f"inner {inner} not contained in outer {outer}")
        return tuple.__new__(cls, (outer, inner))

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    @property
    def is_normal(self) -> bool:
        return self.inner == ()

    def inner_height(self, j: int) -> int:
        return self.inner[j - 1] if j <= len(self.inner) else 0

    def boxes(self):
        for j in range(1, len(self.outer) + 1):
            for i in range(self.inner_height(j) + 1, self.outer[j - 1] + 1):
                yield (i, j)


class _TableauFields(NamedTuple):
    shape: SkewShape
    offset: int
    column_word: tuple[int, ...]


class StandardTableau(_TableauFields):
    """Bijection from the boxes of a (skew) diagram onto [m+1, m+n], stored as
    its column word.

    A NamedTuple of exactly ``(shape, offset, column_word)``: immutable,
    hashable and equal by these fields.  ``column_word[k]`` is the column of
    the entry ``offset+1+k``.  Entries increase down a column, so the row of
    an entry is the inner height of its column plus the number of entries up
    to it in that column: the boxes, rows, text and descent classes are read
    off the shape and the word on each call.
    """

    __slots__ = ()

    def __new__(cls, shape: SkewShape, column_word, offset: int = 0, _checked: bool = False):
        self = tuple.__new__(cls, (shape, offset, tuple(column_word)))
        if _checked:
            return self
        # each letter is a column not yet full and, with its entry, no taller than its left one
        outer, heights = shape.outer, _inner_heights(shape)
        for c in self.column_word:
            if not (isinstance(c, int) and 0 < c <= len(outer) and heights[c - 1] < outer[c - 1]):
                raise ValueError(f"column {c!r} outside shape")
            heights[c - 1] += 1
            if c > 1 and heights[c - 1] > heights[c - 2]:
                raise ValueError("entries must increase along rows")
        if len(self.column_word) != shape.size:
            raise ValueError("entry count does not match shape size")
        return self

    def __getnewargs__(self):
        return self.shape, self.column_word, self.offset, True

    # -- basic views

    @property
    def size(self) -> int:
        return len(self.column_word)

    def entries(self):
        return range(self.offset + 1, self.offset + self.size + 1)

    @property
    def min_entry(self) -> int:
        return self.offset + 1

    @property
    def max_entry(self) -> int:
        return self.offset + self.size

    @property
    def boxes(self) -> tuple[tuple[int, int], ...]:
        """boxes[k] is the (row, column) position of the entry offset+1+k."""
        heights = _inner_heights(self.shape)
        out = []
        for c in self.column_word:
            heights[c - 1] += 1
            out.append((heights[c - 1], c))
        return tuple(out)

    def box_of(self, e: int):
        return self.boxes[e - self.offset - 1]

    def row_of(self, e: int) -> int:
        return self.box_of(e)[0]

    def col_of(self, e: int) -> int:
        return self.column_word[e - self.offset - 1]

    def to_rows(self):
        """Entries of each internal row, leftmost column first; taken in
        increasing order, they fill each row from the left.  For skew shapes
        the leading inner boxes of a row are omitted."""
        boxes = self.boxes
        rows: list[list[int]] = [[] for _ in range(max((r for r, _ in boxes), default=0))]
        for e, (r, _c) in enumerate(boxes, self.offset + 1):
            rows[r - 1].append(e)
        return rows

    def text(self) -> str:
        template, base, inner = _text_layout(self.shape)
        heights, slots = list(inner), [0] * len(self.column_word)
        for e, c in enumerate(self.column_word, self.offset + 1):
            slots[base[heights[c]] + c] = e
            heights[c] += 1
        return template % tuple(slots)

    def __repr__(self):
        return f"StandardTableau({self.text()!r})"

    # -- descent classes of the pairs (i, i+1)

    def descent_data(self) -> "DescentData":
        """i+1 left of i: sd; below it: wd; right and higher: sa; right, not higher: wa."""
        sa, sd, wa, wd = set(), set(), set(), set()
        row = col = 0  # the box of i, none before the first entry
        for i, (r, c) in enumerate(self.boxes, self.offset):
            if col > c:
                sd.add(i)
            elif col == c:
                wd.add(i)
            elif col:
                (sa if row > r else wa).add(i)
            row, col = r, c
        return DescentData(frozenset(sa), frozenset(sd), frozenset(wa), frozenset(wd))

    @property
    def descents(self) -> frozenset[int]:
        """The i with i+1 left of i or below it: col(i) >= col(i+1)."""
        word = self.column_word
        return frozenset(compress(count(self.offset + 1), map(ge, word, word[1:])))


def _inner_heights(shape: SkewShape) -> list[int]:
    """The inner height of each column of the shape, a list to fill in."""
    return list(shape.inner) + [0] * (len(shape.outer) - len(shape.inner))


@lru_cache(maxsize=1024)
def _text_layout(shape: SkewShape) -> tuple[str, tuple[int, ...], tuple[int, ...]]:
    """For text(): the "%d %d/%d" template of the rows, inner boxes left out as in
    to_rows; base, with base[i] + c the row-major slot of the box in row i + 1 and
    column c; and heights, with heights[c] the inner height of column c."""
    inner, rows, base, start = _inner_heights(shape), [], [], 0
    for i in range(max((o for o, h in zip(shape.outer, inner) if o > h), default=0)):
        # row i + 1 spans the columns first + 1 .. last
        first, last = sum(h > i for h in inner), sum(o > i for o in shape.outer)
        rows.append(" ".join(["%d"] * (last - first)))
        base.append(start - first - 1)
        start += last - first
    return "/".join(rows), tuple(base), (0, *inner)


class DescentData(NamedTuple):
    """The four descent/ascent classes of consecutive-entry pairs."""

    sa: frozenset[int]
    sd: frozenset[int]
    wa: frozenset[int]
    wd: frozenset[int]

    @property
    def d(self) -> frozenset[int]:
        return self.sd | self.wd


# ---------------------------------------------------------------------------
# distinguished fillings


def tau_min(shape, offset: int = 0) -> StandardTableau:
    """The column-by-column filling: the minimal standard tableau."""
    shape = shape if isinstance(shape, SkewShape) else SkewShape(tuple(shape))
    heights = zip(shape.outer, _inner_heights(shape))
    word = [j for j, (o, h) in enumerate(heights, 1) for _ in range(h, o)]
    return StandardTableau(shape, word, offset, _checked=True)


def tau_max(shape, offset: int = 0) -> StandardTableau:
    """The row-by-row filling: transpose of the minimal filling of the transpose."""
    shape = shape if isinstance(shape, SkewShape) else SkewShape(tuple(shape))
    heights = list(zip(shape.outer, _inner_heights(shape)))
    depth = shape.outer[0] if shape.outer else 0
    word = [j for i in range(depth) for j, (o, h) in enumerate(heights, 1) if h <= i < o]
    return StandardTableau(shape, word, offset, _checked=True)


def swap_adjacent(t: StandardTableau, i: int) -> StandardTableau:
    """The tableau s_i t, with the entries i and i+1 exchanged.

    Valid only when i and i+1 lie in different rows and different columns:
    i+1 left of i, or right of i and higher up.
    """
    k, word = i - t.offset - 1, list(t.column_word)
    a, b = word[k : k + 2] if 0 <= k < len(word) - 1 else (0, 0)  # (0, 0): i or i+1 not an entry
    if a == b or (a < b and t.row_of(i) <= t.row_of(i + 1)):
        raise ValueError(f"swapping {i},{i+1} does not give a standard tableau")
    word[k], word[k + 1] = b, a
    return StandardTableau(t.shape, word, t.offset, _checked=True)


# ---------------------------------------------------------------------------
# enumeration


def enumerate_std(shape, offset: int = 0) -> list[StandardTableau]:
    """All standard tableaux of the given shape, in increasing lex order."""
    shape = shape if isinstance(shape, SkewShape) else SkewShape(tuple(shape))
    outer = shape.outer
    width = len(outer)
    heights = _inner_heights(shape)
    results: list[StandardTableau] = []
    word: list[int] = []
    # a depth-first search on an explicit stack rather than by recursion, so
    # a column of thousands of boxes stays within the recursion limit:
    # tries[d] is the first column not yet tried for the letter after word[:d]
    size = shape.size
    tries = [0]
    while tries:
        j = tries.pop()
        if len(word) == size:
            results.append(StandardTableau(shape, tuple(word), offset, _checked=True))
            j = width
        while j < width:
            h = heights[j]
            if h < outer[j] and (j == 0 or h + 1 <= heights[j - 1]):
                tries += (j + 1, 0)
                heights[j] += 1
                word.append(j + 1)
                break
            j += 1
        else:
            # no column is left at this depth: take back the last letter
            if word:
                heights[word.pop() - 1] -= 1
    results.sort(key=lex_key)
    return results


# ---------------------------------------------------------------------------
# restriction


def restrict_leq(t: StandardTableau, m: int) -> StandardTableau:
    """Remove all boxes with entries greater than m."""
    if m < t.offset:
        raise ValueError(f"cannot restrict below the target start {t.offset + 1}")
    word = t.column_word[: min(m, t.max_entry) - t.offset]
    heights = _inner_heights(t.shape)
    for c in word:
        heights[c - 1] += 1
    new_shape = SkewShape(heights, t.shape.inner)
    return StandardTableau(new_shape, word, t.offset, _checked=True)


def restrict_gt(t: StandardTableau, m: int) -> StandardTableau:
    """Remove all boxes with entries at most m; the result is skew with target [m+1, ...]."""
    if not t.shape.is_normal:
        raise ValueError("restrict_gt expects a normal-shape tableau")
    if m < t.offset:
        raise ValueError(f"cannot restrict below the target start {t.offset + 1}")
    drop = min(m, t.max_entry) - t.offset
    heights = [0] * len(t.shape.outer)
    for c in t.column_word[:drop]:
        heights[c - 1] += 1
    new_shape = SkewShape(t.shape.outer, heights)
    return StandardTableau(new_shape, t.column_word[drop:], m, _checked=True)


# ---------------------------------------------------------------------------
# words and permutations


def word(t: StandardTableau) -> Permutation:
    """The reading word word_images(t) as a Permutation."""
    return Permutation(word_images(t))


def word_images(t: StandardTableau) -> tuple[int, ...]:
    """Reading word: columns left to right, each read bottom to top."""
    if not (t.shape.is_normal and t.offset == 0):
        raise ValueError("word is defined for normal tableaux with target [1, n]")
    cols = t.column_word  # entries grow down a column: read it in decreasing order
    return tuple(sorted(range(1, len(cols) + 1), key=lambda e: (cols[e - 1], -e)))


def perm(t: StandardTableau) -> Permutation:
    """The permutation carrying the minimal tableau of the shape onto t."""
    return multiply(word(t), inverse(word(tau_min(t.shape))))


# ---------------------------------------------------------------------------
# orders on tableaux


def lex_key(t: StandardTableau):
    """Sort key realising the lexicographic order: bigger key = lex-bigger tableau."""
    return tuple(-c for c in reversed(t.column_word))


def lex_compare(u: StandardTableau, t: StandardTableau) -> int:
    """-1, 0 or 1 as u is lex-below, equal to, or lex-above t.

    t is lex-bigger than u exactly when, at the largest entry where their
    column indices differ, t's column is smaller.
    """
    if u.size != t.size or u.offset != t.offset:
        raise ValueError("tableaux must share the same target")
    ku, kt = lex_key(u), lex_key(t)
    return -1 if ku < kt else (0 if ku == kt else 1)


def tableau_dominance_leq(u: StandardTableau, t: StandardTableau) -> bool:
    """u <= t for same-shape tableaux; equals the Bruhat order on perm."""
    if u.shape != t.shape or u.offset != t.offset:
        raise ValueError("tableau dominance requires equal shapes and targets")
    return extended_dominance_leq(u, t)


def extended_dominance_leq(u: StandardTableau, t: StandardTableau) -> bool:
    """u <= t in the extended dominance order (shapes may differ); see dominance_keys."""
    if u.size != t.size or u.offset != t.offset:
        raise ValueError("extended dominance requires the same target")
    (ku, kt), guard = dominance_keys([u.column_word, t.column_word])
    return ((ku | guard) - kt) & guard == guard


def dominance_keys(words) -> tuple[list[int], int]:
    """(P, G): packed prefix counts of column words of one length, and their guard mask.

    u <= t in the extended dominance order when no prefix of t's word has
    more letters <= k than the same prefix of u's word, for any column k.
    P[v] holds c(j, k), the number of letters <= k among the first j
    letters of words[v], for 1 <= j <= n and 1 <= k < m, where m is the
    largest letter of all the words (c(j, k) = j once k >= m), so words of
    different shapes pack together.  Each count has a field of
    b = n.bit_length() + 1 bits; a count is below 2^(b-1), so the top bit of
    each field, its guard bit, is clear in P[v], and G has every guard bit
    set.  (P[u] | G) - P[t] then subtracts field by field with no borrow
    across fields, and a guard bit survives exactly when c_t(j, k) <=
    c_u(j, k).  So u <= t exactly when ((P[u] | G) - P[t]) & G == G.
    """
    n = len(words[0]) if words else 0
    m = max((max(w) for w in words if w), default=1)
    b = n.bit_length() + 1
    row = (m - 1) * b
    # unit[c]: a letter c adds one to c(j, k) for every k >= c, the fields of ones from k = c up
    ones = ((1 << row) - 1) // ((1 << b) - 1)
    unit = [0] + [ones >> (c - 1) * b << (c - 1) * b for c in range(1, m + 1)]
    keys = []
    for w in words:
        counts = key = 0
        for j, c in enumerate(w):
            counts += unit[c]
            key |= counts << j * row
        keys.append(key)
    guard = ((1 << n * row) - 1) // ((1 << b) - 1) << b - 1
    return keys, guard


def letter_width(words) -> int:
    """Bits of one letter's field in pack: enough for the largest letter of words, at least 1."""
    return max((max(w) for w in words if w), default=1).bit_length()


def pack(word, width: int) -> int:
    """The letters of word as one integer, each in a field of width bits, the first letter highest.

    Two words of one length first differ in the field of the highest set bit of the XOR
    of their integers: such integers are in lexicographic order of the words, and the
    words sharing their first k letters are one range of them.
    """
    p = 0
    for c in word:
        p = p << width | c
    return p


def swap_packed(p: int, word, e: int, width: int) -> int:
    """pack of word with the letters at e and e + 1 (1-based) exchanged,
    from p = pack(word, width): two fields of p changed."""
    d = word[e - 1] ^ word[e]
    return p ^ (d << width | d) << width * (len(word) - e - 1)


# ---------------------------------------------------------------------------
# critical tableaux


def is_m_critical(t: StandardTableau, m: int) -> bool:
    """Whether the skew tableau t, with target starting at m, is m-critical.

    Requires the first nonempty column i to receive m, column i+1 to receive
    m+1, and the entries above m+1 to form the minimal filling of their shape.
    """
    if t.size < 2:
        raise ValueError("m-critical tableaux need at least two boxes")
    if t.offset != m - 1:
        raise ValueError(f"target must start at {m}")
    i = min(t.column_word)  # the first nonempty column
    if t.col_of(m) != i or t.col_of(m + 1) != i + 1:
        return False
    return all(t.col_of(e) <= t.col_of(e + 1) for e in range(m + 2, t.max_entry))


def m_critical_tableau(shape: SkewShape, m: int) -> StandardTableau:
    """The m-critical tableau of the given skew shape, when it exists: the
    minimal filling with the first entry of column i+1 moved up to second,
    where i is the first nonempty column."""
    word = list(tau_min(shape).column_word)
    if not word or word[0] + 1 not in word:
        raise ValueError("no m-critical tableau of this shape")
    word.insert(1, word.pop(word.index(word[0] + 1)))
    return StandardTableau(shape, word, m - 1)


# ---------------------------------------------------------------------------
# text round-trip


@lru_cache(maxsize=128)  # a layout holds about 90 bytes a box; a built document has one shape
def _row_layout(lengths: tuple[int, ...]):
    """The normal shape with rows of these lengths, one object while it is recent;
    the column of each box in row-major order; and two itemgetters that, from the
    entries in that order and a sentinel, give each entry's left and upper
    neighbour, or the sentinel where there is none (and it twice more at the end)."""
    if any(map(lt, lengths, lengths[1:])):
        raise ValueError("row lengths must weakly decrease")
    size = sum(lengths)
    boxes = [(i, j) for i, length in enumerate(lengths) for j in range(length)]
    left = itemgetter(*(p - 1 if j else size for p, (i, j) in enumerate(boxes)), size, size)
    up = itemgetter(*(p - lengths[i - 1] if i else size for p, (i, j) in enumerate(boxes)), size, size)
    return SkewShape(conjugate(_trim(lengths))), tuple(j + 1 for i, j in boxes), left, up


def from_rows(rows) -> StandardTableau:
    """Build a normal-shape tableau from its internal rows, lists of entries or
    of their digit strings.  The row lengths must weakly decrease, the entries
    increase along rows and down columns, and then form an interval."""
    shape, cols, left, up = _row_layout(tuple(map(len, rows)))
    flat = list(map(int, chain.from_iterable(rows)))
    padded = [*flat, -inf]
    if not all(map(lt, left(padded), flat)):
        raise ValueError("entries must increase along rows")
    if not all(map(lt, up(padded), flat)):
        raise ValueError("entries must increase down columns")
    offset = flat[0] - 1 if flat else 0  # the least entry, the rows and columns increasing
    word = tuple(map(dict(zip(flat, cols)).get, range(offset + 1, offset + 1 + len(flat))))
    if None in word:
        raise ValueError("entries must form a contiguous interval")
    return StandardTableau(shape, word, offset, _checked=True)


def from_column_word(cols, offset: int = 0) -> StandardTableau:
    """The normal-shape tableau whose entry offset+1+k lies in column cols[k]."""
    cols = tuple(cols)
    heights: list[int] = []
    for c in cols:
        heights += [0] * (c - len(heights))
        heights[c - 1] += 1
    return StandardTableau(SkewShape(tuple(heights)), cols, offset)


_ENTRY = "[1-9][0-9]*"
_ROW = f"{_ENTRY}(?: {_ENTRY})*"
_TEXT = re.compile(f"(?:{_ROW}(?:/{_ROW})*)?")


def from_text(s: str) -> StandardTableau:
    """Parse the '/'-separated row form, e.g. ``"1 3/2"``.

    Accepts exactly what ``text()`` writes for a normal shape: positive
    ASCII integers without leading zeros, one space between the entries of a
    row and one '/' between non-empty rows; ``""`` is the empty tableau.
    """
    if _TEXT.fullmatch(s) is None:
        raise ValueError(f"malformed tableau text {s!r}")
    return from_rows(list(map(str.split, s.split("/"))))  # [[]] for ""
