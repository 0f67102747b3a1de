"""Robinson-Schensted insertion, jeu de taquin slides, dual equivalence.

Row insertion is performed on the image sequence (w1, ..., wn) and the
resulting arrays are read as the internal rows of column-convention
tableaux.  With that identification the insertion tableau of the reading
word of t is t itself and the recording tableau is the minimal filling of
the shape, which is the convention every caller of this module relies on.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple

from . import knuth
from . import tableaux as tb
from .permutations import Permutation
from .tableaux import SkewShape, StandardTableau


def rs(w: Permutation):
    """Robinson-Schensted pair (insertion tableau, recording tableau).

    >>> P, Q = rs(Permutation((2, 1, 3)))
    >>> P.text(), Q.text()
    ('1 3/2', '1 3/2')
    """
    prows: list[list[int]] = []
    qrows: list[list[int]] = []
    for step, value in enumerate(w.images, start=1):
        r = 0
        while True:
            if r == len(prows):
                prows.append([value])
                qrows.append([step])
                break
            row = prows[r]
            k = bisect_right(row, value)
            if k == len(row):
                row.append(value)
                qrows[r].append(step)
                break
            row[k], value = value, row[k]
            r += 1
    return tb.from_rows(prows), tb.from_rows(qrows)


def rs_inverse(p: StandardTableau, q: StandardTableau) -> Permutation:
    """The unique permutation with insertion tableau p and recording tableau q."""
    if p.shape != q.shape:
        raise ValueError("shape mismatch")
    if not (p.shape.is_normal and p.offset == 0 and q.offset == 0):
        raise ValueError("expected normal tableaux with target [1, n]")
    prows = p.to_rows()
    qboxes = q.boxes
    images = [0] * p.size
    for step in range(p.size, 0, -1):
        r = qboxes[step - 1][0]
        value = prows[r - 1].pop()
        for row in reversed(prows[: r - 1]):
            k = bisect_left(row, value) - 1
            row[k], value = value, row[k]
        images[step - 1] = value
    return Permutation(images)


# ---------------------------------------------------------------------------
# jeu de taquin


class SlideRecord(NamedTuple):
    """One jeu de taquin slide: where it started, how it moved, what it left."""

    start: tuple[int, int]
    path: tuple[tuple[int, int], ...]
    vacated: tuple[int, int]
    result: StandardTableau


def jdt_slide(t: StandardTableau, c) -> SlideRecord:
    """Slide into the inner-removable box c; the path moves weakly down-right."""
    c = tuple(c)
    inner = t.shape.inner
    if c not in tb.removable_boxes(inner):
        raise ValueError(f"{c} is not a removable box of the inner shape {inner}")
    pos = dict(zip(t.boxes, t.entries()))
    outer = t.shape.outer
    hole = c
    path = [c]
    while True:
        i, j = hole
        below = pos.get((i + 1, j))
        right = pos.get((i, j + 1))
        if below is None and right is None:
            break
        if right is None or (below is not None and below < right):
            nxt = (i + 1, j)
        else:
            nxt = (i, j + 1)
        pos[hole] = pos.pop(nxt)
        hole = nxt
        path.append(nxt)
    new_outer = list(outer)
    new_outer[hole[1] - 1] -= 1
    new_inner = list(inner)
    new_inner[c[1] - 1] -= 1
    shape = SkewShape(tb._trim(new_outer), tb._trim(new_inner))
    word = [j for _, j in sorted(pos, key=pos.get)]
    result = StandardTableau(shape, word, t.offset, _checked=True)
    return SlideRecord(c, tuple(path), hole, result)


def rectify(t: StandardTableau) -> StandardTableau:
    """Slide until the shape is normal.

    The slide order (inner-removable box of largest column first) is fixed to
    make the function deterministic; the result does not depend on it and
    equals the insertion tableau of the reading word.
    """
    while not t.shape.is_normal:
        box = max(tb.removable_boxes(t.shape.inner), key=lambda b: b[1])
        t = jdt_slide(t, box).result
    return t


def dual_equivalent(u: StandardTableau, t: StandardTableau) -> bool:
    """Whether u and t are connected by dual Knuth moves."""
    if u.shape != t.shape or u.offset != t.offset:
        raise ValueError("dual equivalence requires equal shapes and targets")
    if u == t:
        return True
    seen = {u}
    frontier = [u]
    while frontier:
        cur = frontier.pop()
        for mv in knuth.dk_moves_from(cur):
            for nb in (mv.source, mv.target):
                if nb == t:
                    return True
                if nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
    return False
