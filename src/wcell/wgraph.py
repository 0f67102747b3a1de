"""S-coloured graphs: the data model for W-graphs, cells and molecules.

A graph is a triple (V, mu, tau): integer weights mu on ordered vertex
pairs and colours tau(v) that are subsets of the generator indices
{1, ..., n-1}.  The weight mu(u, v) is the coefficient of u in the image of
v, so there is an arc from v to u exactly when mu(u, v) != 0 and tau(u) is
not contained in tau(v).  An edge is a pair of opposite arcs; it is simple
when both weights are 1.

The rule checkers return structured reports rather than raising, so a
failing graph can be inspected; the CLI maps reports to exit codes.  A
report lists at most _MAX_WITNESSES witnesses, the first ones in increasing
key order: (u, v) of the weight for the weight rules, (i, v) for bonding.
A rule scans the weights in the order of g.mu and sorts only to write a
failing report, so a passing graph is never sorted.

A graph document is the JSON text that ``json.dumps(obj, indent=2)`` gives
for the object below, plus a newline; json_chunks writes it from templates,
formatting each distinct colour once, and tests compare it with that
encoding.  Keys come in this order:

- ``"n"``: the integer n;
- ``"vertices"``: for each vertex v in order, ``{"id": v, "tau": [...],
  "label": ...}``, where tau lists the colour in increasing order (``[]``
  when empty) and the label is ``null`` or ``{"molecule": m, "tableau":
  text}``;
- ``"mu"``: for each nonzero weight, sorted by (from, to),
  ``{"from": u, "to": v, "w": mu(u, v)}``.

The tableau text is StandardTableau.text(), a template made once per shape
and filled in: the rows of a normal-shape tableau joined by "/", each row its
positive entries in ASCII digits without leading zeros, joined by single
spaces; ``""`` is the empty tableau.  It holds only digits, spaces and "/",
so it needs no JSON escaping, and the loader accepts no other label text.
The loader checks each colour list item by item; it rejects a colour above
MAX_COLOUR, and two weight entries for one (from, to) pair, whatever weights.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, islice
from operator import or_
from typing import NamedTuple, Optional

from . import tableaux as tb
from .tableaux import StandardTableau

Label = tuple[int, StandardTableau]  # (molecule index, tableau)


class SColoredGraph:
    __slots__ = ("n", "tau", "masks", "mu", "labels")

    def __init__(self, n: int, tau, mu: dict, labels=None):
        """n is the rank plus one: generator indices run over {1, ..., n-1}.
        masks[v] is tau(v) as the integer with bit i set for each i in it;
        every algorithm reads the masks, and tau is the frozenset view.
        The graph keeps the dict mu it is handed, and makes a new one only
        to drop zero weights, so the caller must not change mu afterwards."""
        tau = tuple(map(frozenset, tau))
        mask_of = dict.fromkeys(tau)
        for s in mask_of:
            if any(not 1 <= i <= n - 1 for i in s):
                raise ValueError(f"colour {set(s)} outside [1,{n-1}]")
            mask_of[s] = sum(1 << i for i in s)
        if 0 in mu.values():
            mu = {key: w for key, w in mu.items() if w != 0}
        nv = len(tau)
        for (u, v) in mu:
            if not (0 <= u < nv and 0 <= v < nv):
                raise ValueError(f"weight on unknown vertex pair ({u},{v})")
            if u == v:
                raise ValueError("self-weights are not allowed")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != nv:
                raise ValueError("one label per vertex required")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "masks", tuple(map(mask_of.__getitem__, tau)))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, *a):
        raise AttributeError("SColoredGraph is immutable")

    @property
    def num_vertices(self) -> int:
        return len(self.tau)

    def vertices(self):
        return range(len(self.masks))

    def weight(self, u: int, v: int) -> int:
        """mu(u, v): the coefficient of u in the image of v."""
        return self.mu.get((u, v), 0)

    def is_labelled(self) -> bool:
        return self.labels is not None and all(l is not None for l in self.labels)

    # -- derived views

    def arcs(self):
        """Triples (v, u, weight): arc from v to u with weight mu(u, v)."""
        masks = self.masks
        out = []
        for (u, v), w in sorted(self.mu.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            if masks[u] & ~masks[v]:
                out.append((v, u, w))
        return out

    def simple_edges(self):
        """Unordered pairs u < v joined by opposite arcs of weight 1, ascending."""
        return sorted((u, v) for u, vs in enumerate(_simple_adjacency(self)) for v in vs if u < v)


# ---------------------------------------------------------------------------
# reports


class CheckReport(NamedTuple):
    rule: str
    ok: bool
    violations: tuple = ()

    def __bool__(self):
        return self.ok

    def summary(self) -> str:
        state = "pass" if self.ok else "FAIL"
        extra = ""
        if not self.ok and self.violations:
            extra = f" first witness: {self.violations[0]}"
        return f"{self.rule}: {state}{extra}"


_MAX_WITNESSES = 20


# ---------------------------------------------------------------------------
# cells and molecules


class CellDecomposition(NamedTuple):
    """Strongly connected components plus the induced order on them."""

    blocks: tuple[frozenset[int], ...]
    block_of: tuple[int, ...]
    closure: tuple[frozenset[int], ...]  # blocks reachable from each block

    def leq(self, b1: int, b2: int) -> bool:
        """b1 <= b2 when some vertex of b1 is reachable from b2."""
        return b1 in self.closure[b2]


def _sccs(succ) -> list[frozenset[int]]:
    """Tarjan's SCCs of the digraph succ[v] lists the heads of, on an explicit
    stack, in the order emitted: each block comes after every block it reaches."""
    nv = len(succ)
    index = [-1] * nv
    low = [0] * nv
    on_stack = [False] * nv
    stack: list[int] = []
    blocks: list[frozenset[int]] = []
    counter = 0
    for root in range(nv):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(succ[v])):
                u = succ[v][k]
                if index[u] == -1:
                    work[-1] = (v, k + 1)
                    work.append((u, 0))
                    advanced = True
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp.append(u)
                    if u == v:
                        break
                blocks.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return blocks


def cells(g: SColoredGraph) -> CellDecomposition:
    """SCCs of the arc digraph, with the condensation reachability order."""
    masks = g.masks
    # succ[v]: the heads u of the arcs v -> u, in the order of g.mu
    succ: list[list[int]] = [[] for _ in masks]
    for u, v in g.mu:
        if masks[u] & ~masks[v]:
            succ[v].append(u)
    blocks = _sccs(succ)
    block_of = [-1] * len(masks)
    for b, block in enumerate(blocks):
        for u in block:
            block_of[u] = b
    succ_blocks: list[set[int]] = [set() for _ in blocks]
    for v, heads in enumerate(succ):
        for u in heads:
            if block_of[u] != block_of[v]:
                succ_blocks[block_of[v]].add(block_of[u])
    closure: list[frozenset[int]] = [frozenset()] * len(blocks)
    # _sccs emits blocks in reverse topological order of the condensation,
    # so successors are already closed when a block is processed.
    for b, succ_b in enumerate(succ_blocks):
        acc = {b}
        for c in succ_b:
            acc.update(closure[c])
        closure[b] = frozenset(acc)
    return CellDecomposition(tuple(blocks), tuple(block_of), tuple(closure))


def _simple_adjacency(g: SColoredGraph) -> list[list[int]]:
    """The simple-edge neighbours of each vertex, in the order of g.mu."""
    mu, masks = g.mu, g.masks
    edges_at: list[list[int]] = [[] for _ in masks]
    for (u, v), w in mu.items():
        if w == 1 and u < v and mu.get((v, u)) == 1:
            mu_, mv = masks[u], masks[v]
            if mu_ & ~mv and mv & ~mu_:
                edges_at[u].append(v)
                edges_at[v].append(u)
    return edges_at


def simple_parts(g: SColoredGraph) -> list[frozenset[int]]:
    """Connected components of the simple edges (SCCs of a symmetric graph), by least vertex."""
    return sorted(_sccs(_simple_adjacency(g)), key=min)


class MoleculeTypingError(ValueError):
    """A simple part is not isomorphic to any dual-equivalence graph."""

    def __init__(self, part, tried):
        self.part = part
        self.tried = tried
        super().__init__(
            f"no shape matches simple part of size {len(part)} (tried {tried})"
        )


def _try_type(g: SColoredGraph, part: frozenset[int], cell, edges_at) -> Optional[list[int]]:
    """Map the vertices of cell onto the part, preserving colours and simple edges.

    edges_at[v] lists the simple-edge neighbours of v.  cell is a
    builder.cell_index, whose dual Knuth edges are its weights present in
    both directions.  On success the result maps each index vertex k to a
    part vertex.
    """
    cols, masks = cell.cols, cell.masks
    if len(cols) != len(part):
        return None
    dk = [[u for u in col if t in cols[u]] for t, col in enumerate(cols)]
    if sum(map(len, dk)) != sum(len(edges_at[v]) for v in part):
        return None
    colour = g.masks
    # vertex 0 is the lex-minimal tableau
    for seed in (v for v in part if colour[v] == masks[0]):
        image: list[Optional[int]] = [None] * len(cols)
        image[0] = seed
        frontier = [0]
        ok = True
        while frontier and ok:
            t = frontier.pop()
            for nb in dk[t]:
                found = [x for x in edges_at[image[t]] if colour[x] == masks[nb]]
                if len(found) != 1 or image[nb] not in (None, found[0]):
                    ok = False
                    break
                if image[nb] is None:
                    image[nb] = found[0]
                    frontier.append(nb)
        # equal edge counts make a colour-preserving bijection onto the part
        # carry the dual Knuth edges onto all of its simple edges
        if ok and None not in image and len(set(image)) == len(part):
            return image
    return None


def molecule_types(g: SColoredGraph):
    """Assign to each simple part the shape of the matching dual-equivalence graph.

    Returns (parts, types) where types[k] is the partition for parts[k].
    Typing is a seeded search on builder.cell_index: the lex-minimal
    tableau must land on a vertex whose colour matches its descent set, and
    the unique-neighbour property of molecular graphs then forces the rest
    of the correspondence along the dual Knuth edges of the index.  A shape
    whose edge count differs from the part's is rejected before any search.
    Each shape's index is built once per call.
    """
    from .builder import cell_index  # builder imports this module

    edges_at = _simple_adjacency(g)
    parts = sorted(_sccs(edges_at), key=min)
    indexes: dict = {}
    types = []
    for part in parts:
        tried = []
        for lam in tb.partitions_of(g.n):
            if tb.hook_count(lam) != len(part):
                continue
            tried.append(lam)
            if lam not in indexes:
                indexes[lam] = cell_index(tb.enumerate_std(lam))
            if _try_type(g, part, indexes[lam], edges_at) is not None:
                types.append(lam)
                break
        else:
            raise MoleculeTypingError(part, tried)
    return parts, types


def restrict(g: SColoredGraph, J) -> SColoredGraph:
    """Restriction to the parabolic subgroup generated by J."""
    J = frozenset(J)
    tau = [s & J for s in g.tau]
    mu = {
        (u, v): w
        for (u, v), w in g.mu.items()
        if not tau[u] <= tau[v]
    }
    return SColoredGraph(g.n, tau, mu, g.labels)


# ---------------------------------------------------------------------------
# rule checkers


def _report(rule: str, witnesses, mu: dict) -> CheckReport:
    """The report of a rule whose witnesses(items) yields the violations of
    the weights items, in their order: a pass over mu in dict order that
    finds none passes, and only then are the weights sorted, for the first
    _MAX_WITNESSES violations in increasing key order."""
    if next(witnesses(mu.items()), None) is None:
        return CheckReport(rule, True)
    return CheckReport(rule, False, tuple(islice(witnesses(sorted(mu.items())), _MAX_WITNESSES)))


def _odd_cycles(adjacency):
    """("odd-cycle", v, u) for each component of the graph adjacency[v]
    lists the neighbours of, where the two-colouring search from its least
    vertex first reaches an edge uv with both ends coloured alike."""
    colour = [-1] * len(adjacency)
    for root in range(len(adjacency)):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        frontier = [root]
        while frontier:
            v = frontier.pop()
            for u in adjacency[v]:
                if colour[u] < 0:
                    colour[u] = 1 - colour[v]
                    frontier.append(u)
                elif colour[u] == colour[v]:
                    yield ("odd-cycle", v, u)
                    frontier = []
                    break


def check_admissible(g: SColoredGraph) -> CheckReport:
    """Nonnegative integer weights, symmetric on incomparable colours, bipartite."""
    mu, masks = g.mu, g.masks

    def weights(items):
        get = mu.get
        for (u, v), w in items:
            if not isinstance(w, int) or w < 0:
                yield ("negative-weight", u, v, w)
            elif masks[u] & ~masks[v] and masks[v] & ~masks[u] and get((v, u), 0) != w:
                yield ("asymmetric", u, v, w, get((v, u), 0))

    # whether the arcs make an odd cycle does not depend on the order the
    # search takes them in, so a passing graph is searched on lists in the
    # order of mu
    adjacency: list[list[int]] = [[] for _ in masks]
    for u, v in mu:
        if masks[u] & ~masks[v]:
            adjacency[v].append(u)
            adjacency[u].append(v)
    if next(chain(weights(mu.items()), _odd_cycles(adjacency)), None) is None:
        return CheckReport("admissible", True)
    # sets filled from g.arcs(), as helpers.check_admissible fills its own:
    # a set of ints iterates in an order fixed by what was added and when,
    # so both searches visit the same neighbours in the same order
    sets: list[set[int]] = [set() for _ in masks]
    for v, u, _ in g.arcs():
        sets[v].add(u)
        sets[u].add(v)
    bad = chain(weights(sorted(mu.items())), _odd_cycles(sets))
    return CheckReport("admissible", False, tuple(islice(bad, _MAX_WITNESSES)))


def check_compatibility(g: SColoredGraph) -> CheckReport:
    """Colours across a nonzero weight differ only by bonded generators
    (|i-j| = 1); the witnesses (u, v, i, j) of one weight come in ascending (i, j)."""
    masks = g.masks

    def witnesses(items):
        for (u, v), _ in items:
            a = masks[u] & ~masks[v]
            b = masks[v] & ~masks[u]
            # every i of a is next to every j of b exactly when one of them
            # is a single generator and the other lies among its neighbours
            if a and b and (a & (a - 1) or b & ~(a << 1 | a >> 1)) and (
                b & (b - 1) or a & ~(b << 1 | b >> 1)
            ):
                for i in _bits(a):
                    for j in _bits(b):
                        if abs(i - j) != 1:
                            yield (u, v, i, j)

    return _report("compatibility", witnesses, g.mu)


def check_simplicity(g: SColoredGraph) -> CheckReport:
    """Each nonzero weight is a one-way arc into a larger colour or half a simple edge."""
    mu, masks = g.mu, g.masks

    def witnesses(items):
        get = mu.get
        for (u, v), w in items:
            mu_, mv = masks[u], masks[v]
            if mv & ~mu_:
                if not mu_ & ~mv:
                    yield ("weight-into-smaller-colour", u, v, w)
                elif w != 1 or get((v, u), 0) != 1:
                    yield ("non-simple-edge", u, v, w, get((v, u), 0))
            elif mu_ == mv:
                yield ("weight-into-smaller-colour", u, v, w)
            elif (v, u) in mu:
                yield ("two-way-cover", u, v)

    return _report("simplicity", witnesses, mu)


def _bits(m: int):
    """The i with bit i set in m >= 0, ascending."""
    while m:
        yield (m & -m).bit_length() - 1
        m &= m - 1


def bonds(g: SColoredGraph) -> list[int]:
    """The i <= n - 2, ascending, of the bonds (i, i + 1) with i or i + 1 in
    some colour: at any other bond no vertex has either generator."""
    used = reduce(or_, set(g.masks), 0)
    return [s for s in _bits((used | used >> 1) & ~1) if s <= g.n - 2]


def check_bonding(g: SColoredGraph) -> CheckReport:
    """Simply-laced bonding: unique opposite-pattern neighbour across each
    bond of bonds(g).

    Each vertex is tried at the bonds (i, i + 1) that its colour holds one
    generator of, which are all in bonds(g).  A simple-edge neighbour has
    the opposite pattern there exactly when its colour differs from the
    vertex's at both i and i + 1, so one pass over the neighbours marks
    the bonds met once and those met again.  The witnesses (v, i, i + 1,
    count) come in increasing (i, v), sorted only when some vertex fails.
    """
    masks = g.masks
    edges_at = _simple_adjacency(g)
    inner = sum(1 << i for i in bonds(g))

    def witnesses(vertices):
        for v in vertices:
            m = masks[v]
            touched = (m ^ m >> 1) & inner
            once = twice = 0
            for u in edges_at[v]:
                d = m ^ masks[u]
                hits = d & d >> 1 & touched
                twice |= once & hits
                once |= hits
            for i in _bits(touched & ~(once & ~twice)):
                count = sum(1 for u in edges_at[v] if (m ^ masks[u]) >> i & 3 == 3)
                yield (v, i, i + 1, count)

    if next(witnesses(g.vertices()), None) is None:
        return CheckReport("bonding", True)
    bad = sorted(witnesses(g.vertices()), key=lambda x: (x[1], x[0]))
    return CheckReport("bonding", False, tuple(bad[:_MAX_WITNESSES]))


def polygon_pairs(g: SColoredGraph) -> list[tuple[int, int, int]]:
    """The triples (i, j, r), i < j, that check_polygon tries: those of r = 3
    ascending in (i, j), then those of r = 2.

    Only generators in the colour of some row u of a nonzero weight mu(u, v)
    are tried.  A path sum can end only at such a vertex, and the rule
    compares only sums whose end is coloured by both i and j, so a pair
    with i or j outside those colours cannot fail.  The sums read i and j
    only through the vertex sets they colour, their groups, and swapping i
    and j swaps N_ij and N_ji, so for each r each pair of groups is tried
    once, at its first pair (i, j): a pair of groups that passes passes for
    every such pair.  For r = 2 that pair joins the smallest generators of
    the two groups; r = 3 reads only bonded pairs (i, i + 1).  A pair of
    groups is tried only if some vertex holds both (a path ends there) and
    some vertex holds neither (a path starts there); one group paired with
    itself has neither kind of interior vertex.  So a document with
    thousands of generators on few vertices stays cheap.
    """
    masks = g.masks
    rows = reduce(or_, {masks[u] for u, _ in g.mu}, 0)
    # group[i], for each i in rows: the distinct colours that hold i, a bit for each
    colours = dict.fromkeys(masks)
    group: dict[int, int] = {}
    for c, m in enumerate(colours):
        for i in _bits(m & rows):
            group[i] = group.get(i, 0) | 1 << c
    gens = sorted(group)
    everyone = (1 << len(colours)) - 1
    # the smallest generator of each group, ascending
    firsts: dict[int, int] = {}
    for i in gens:
        firsts.setdefault(group[i], i)
    lows = list(firsts.values())
    candidates = [(i, i + 1, 3) for i in gens if i + 1 in group]
    candidates += [(i, j, 2) for a, i in enumerate(lows) for j in lows[a + 1 :]]
    triples, tried = [], set()
    for i, j, r in candidates:
        a, b = group[i], group[j]
        if a == b or not a & b or a | b == everyone or (a, b, r) in tried:
            continue
        tried.update(((a, b, r), (b, a, r)))
        triples.append((i, j, r))
    return triples


def polygon_sums(g: SColoredGraph):
    """N^r_{i,j} and N^r_{j,i} from each start, for every triple of polygon_pairs.

    Yields (u, sums) in increasing u, where sums maps a triple (i, j, r) to
    the dicts (n_ij, n_ji) of the sums from u.  n_ij maps each end v with
    i, j in tau(v) to the sum of the weight products over directed paths
    from u to v whose r-1 interior vertices alternate between containing i
    but not j and containing j but not i, starting with i; n_ji starts with
    j.  Only starts u with i, j outside tau(u) count.  Triples, ends and
    starts with no path are missing.  Every nonzero weight counts as a
    step, whether or not it is an arc.

    Each alternating path is walked once for all triples.  Bit 2k of a mask
    stands for n_ij of the k-th triple (i, j, r) and bit 2k + 1 for its
    n_ji; each vertex gets masks of the sums it may start, be the first or
    the second interior vertex of, or end.  A path counts in the sums of the
    bits its vertices' masks share, so the walk keeps the running
    intersection and drops a path once it is empty.  An r = 2 path ends
    after its first interior vertex; the r = 3 bits, the low ones, take one
    more step, on masks that hold no r = 2 bit, so mostly small integers.
    """
    triples = polygon_pairs(g)
    if not triples:
        return
    # first[i]: the sums whose first generator is i, held by their first
    # interior vertex; second[i]: those whose second generator is i
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    for k, (i, j, _) in enumerate(triples):
        first[i] = first.get(i, 0) | 1 << 2 * k
        first[j] = first.get(j, 0) | 2 << 2 * k
        second[j] = second.get(j, 0) | 1 << 2 * k
        second[i] = second.get(i, 0) | 2 << 2 * k
    every = (1 << 2 * len(triples)) - 1
    r3 = (1 << 2 * sum(r == 3 for _, _, r in triples)) - 1  # the r = 3 bits
    kinds = dict.fromkeys(g.masks)
    for s in kinds:
        # the sums whose first, and whose second, generator the colour s holds
        one = two = 0
        for i in _bits(s):
            if i in first:
                one |= first[i]
                two |= second[i]
        # the sums a vertex of colour s may start, lead, follow and end
        lead, end = one & ~two, one & two
        kinds[s] = (every & ~(one | two), lead & ~r3, lead & r3, two & ~one & r3, end & ~r3, end & r3)
    start, lead2, lead3, follow, end2, end3 = zip(*map(kinds.__getitem__, g.masks))
    # roles[m]: (triple, 0 for n_ij or 1 for n_ji) for each bit of m
    roles: dict[int, list] = {}
    # cols[v]: u -> mu(u, v) for each weight out of v, in the order of g.mu
    cols: list[dict[int, int]] = [{} for _ in g.masks]
    for (u, v), w in g.mu.items():
        cols[v][u] = w
    for u in g.vertices():
        m0 = start[u]
        if not m0:
            continue
        m3 = m0 & r3
        # (last interior vertex, weight product, mask, ends) of the paths from u
        lasts = []
        for x, w in cols[u].items():
            m1 = m0 & lead2[x]
            if m1:
                lasts.append((x, w, m1, end2))
            m1 = m3 & lead3[x]
            if m1:
                for y, w2 in cols[x].items():
                    m2 = m1 & follow[y]
                    if m2:
                        lasts.append((y, w * w2, m2, end3))
        sums: dict[tuple[int, int, int], tuple[dict, dict]] = {}
        for z, w, m1, end in lasts:
            for v, w2 in cols[z].items():
                m = m1 & end[v]
                if m:
                    ks = roles.get(m)
                    if ks is None:
                        ks = roles[m] = [(triples[k >> 1], k & 1) for k in _bits(m)]
                    for triple, side in ks:
                        both = sums.get(triple)
                        if both is None:
                            both = sums[triple] = ({}, {})
                        n = both[side]
                        n[v] = n.get(v, 0) + w * w2
        if sums:
            yield u, sums


def check_polygon(g: SColoredGraph) -> tuple[CheckReport, CheckReport]:
    """The reports polygon-r2 and polygon-r3: N^r_{i,j} = N^r_{j,i}.

    r = 2 applies to every ordered pair i != j; r = 3 only to bonded pairs.
    Each report gives the first counterexample, (u, v, i, j, r, N_ij, N_ji)
    with the smallest (u, v) for the smallest failing pair (i, j).

    The rule compares N_ij(u, v) with N_ji(u, v) only where i, j are outside
    tau(u) and inside tau(v).  The triples tried are those of polygon_pairs,
    and the whole check is one pass of polygon_sums: one walk of the
    alternating paths, from the starts in increasing u, for both r and all
    pairs at once.  With W nonzero weights and at most d in a column, that
    walk costs O(W d^2), in exact integers, plus the triples each summed
    path counts for.  The first start at which a triple differs, and its
    smallest differing end, give that triple's smallest differing (u, v).
    """
    found = {}
    for u, sums in polygon_sums(g):
        for triple, (n_ij, n_ji) in sums.items():
            if triple in found or n_ij == n_ji:
                continue
            diff = [v for v in n_ij.keys() | n_ji.keys() if n_ij.get(v, 0) != n_ji.get(v, 0)]
            if diff:
                v = min(diff)
                found[triple] = (u, v, *triple, n_ij.get(v, 0), n_ji.get(v, 0))
    reports = []
    for r in (2, 3):
        bad = [found[t] for t in sorted(found) if t[2] == r][:1]
        reports.append(CheckReport(f"polygon-r{r}", not bad, tuple(bad)))
    return tuple(reports)


def check_ordered(g: SColoredGraph) -> CheckReport:
    """Every nonzero weight points down the extended dominance order.

    The one exception is a weight from t up to s_i t > t inside a single
    molecule: the words differ only by exchanging the letters at k and k+1,
    an ascent of t's word (the entry k+1 lies in a column left of k+2).
    Dominance is the guarded subtraction builder.probable_pairs uses, on
    the keys of the column words (tb.dominance_keys), so every vertex needs
    a (molecule, tableau) label and the tableaux must hold the same entries.
    The exchange is tested on the words as tb.pack gives them: the highest
    set bit of the XOR of two packed words lies in the field of their first
    differing letter k, and the exchange at k and k+1 is tb.swap_packed.
    """
    if not g.is_labelled():
        raise ValueError("check_ordered requires labelled vertices")
    if len({(t.size, t.offset) for _, t in g.labels}) > 1:
        raise ValueError("label tableaux must all hold the same entries")
    molecule = [m for m, _ in g.labels]
    words = [t.column_word for _, t in g.labels]
    keys, guard = tb.dominance_keys(words)
    width = tb.letter_width(words)
    packed = [tb.pack(w, width) for w in words]

    def witnesses(items):
        for (cu, cv), w in items:
            ku, kt = keys[cu], keys[cv]
            if ku != kt and ((ku | guard) - kt) & guard == guard:
                continue
            if molecule[cu] == molecule[cv]:
                pu, pt, tw = packed[cu], packed[cv], words[cv]
                # 0-based; len(tw) for equal words
                k = len(tw) - 1 - ((pu ^ pt).bit_length() - 1) // width
                if k < len(tw) - 1 and tw[k] < tw[k + 1]:
                    if pu == tb.swap_packed(pt, tw, k + 1, width):
                        continue
            yield (cu, cv, w)

    return _report("ordered", witnesses, g.mu)


ALL_RULES = ("admissible", "compatibility", "simplicity", "bonding", "polygon", "ordered")


def run_checks(g: SColoredGraph, rules=ALL_RULES) -> list[CheckReport]:
    """The reports of the rules named, in order; "polygon" gives two, r = 2
    then r = 3, from one call of check_polygon.

    Each report's witnesses come in increasing key order, at most
    _MAX_WITNESSES of them; a rule sorts only to write a failing report.
    The rules share the graph's colour masks, made with the graph; the
    polygon rule builds the weight columns it walks from g.mu on each call.
    """
    out = []
    for rule in rules:
        if rule == "admissible":
            out.append(check_admissible(g))
        elif rule == "compatibility":
            out.append(check_compatibility(g))
        elif rule == "simplicity":
            out.append(check_simplicity(g))
        elif rule == "bonding":
            out.append(check_bonding(g))
        elif rule == "polygon":
            out.extend(check_polygon(g))
        elif rule == "ordered":
            out.append(check_ordered(g))
        else:
            raise ValueError(f"unknown rule {rule!r}")
    return out


# ---------------------------------------------------------------------------
# serialization


_VERTEX = '%s\n    {\n      "id": %d,\n      "tau": %s,\n      "label": %s\n    }'
_LABEL = '{\n        "molecule": %d,\n        "tableau": "%s"\n      }'
_WEIGHT = ',\n    {\n      "from": %d,\n      "to": %d,\n      "w": %d\n    }'
_BLOCK = 1024  # weights formatted by one % in json_chunks


def json_chunks(g: SColoredGraph):
    """The text of to_json_str in pieces, one vertex or _BLOCK weights each,
    so a writer never holds it whole; the layout is the one in the module
    docstring."""
    yield '{\n  "n": %d,\n  "vertices": [' % g.n
    labels = g.labels or (None,) * g.num_vertices
    colours = {m: "[\n        %s\n      ]" % ",\n        ".join(map(str, _bits(m))) for m in set(g.masks)}
    colours[0] = "[]"
    sep = ""
    for v, (m, label) in enumerate(zip(g.masks, labels)):
        label = "null" if label is None else _LABEL % (label[0], label[1].text())
        yield _VERTEX % (sep, v, colours[m], label)
        sep = ","
    yield '%s],\n  "mu": [' % ("\n  " if sep else "")
    mu = g.mu
    keys = sorted(mu)
    for start in range(0, len(keys), _BLOCK):
        block = keys[start : start + _BLOCK]
        args = []
        for key in block:
            args += key
            args.append(mu[key])
        text = (_WEIGHT * len(block)) % tuple(args)
        yield text[1:] if start == 0 else text  # no comma before the first weight
    yield "%s]\n}\n" % ("\n  " if keys else "")


def to_json_str(g: SColoredGraph) -> str:
    return "".join(json_chunks(g))


def _expect(x, kind: type, what: str):
    """x itself, if it is a JSON value of the given type (a bool is no int)."""
    if type(x) is not kind and (not isinstance(x, kind) or (kind is int and isinstance(x, bool))):
        raise ValueError(f"{what} must be {kind.__name__}, got {x!r}")
    return x


def _field(obj: dict, key: str, kind: type):
    if key not in obj:
        raise ValueError(f"missing field {key!r}")
    return _expect(obj[key], kind, f"field {key!r}")


# The rules hold a colour as an integer with one bit per generator, so a
# document's colours are capped: a colour near 10**18 would need an integer
# larger than any address space.
MAX_COLOUR = 65535


def from_json_obj(obj: dict) -> SColoredGraph:
    """The graph of a parsed document; raises ValueError on a document of the
    wrong shape.  Each colour list is checked item by item; the lists of one
    colour, in any order, get one frozenset, as the builder's do."""
    _expect(obj, dict, "graph document")
    n = _field(obj, "n", int)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    vertices = _field(obj, "vertices", list)
    tau, labels, targets, shared = [None] * len(vertices), [None] * len(vertices), set(), {}
    for r in vertices:
        _expect(r, dict, "vertex")
        v = _field(r, "id", int)
        if not 0 <= v < len(tau) or tau[v] is not None:
            raise ValueError("vertex ids must be 0..N-1")
        colours = _field(r, "tau", list)
        for c in colours:
            if type(c) is not int:
                raise ValueError(f"colour must be int, got {c!r}")
            if c > MAX_COLOUR:
                raise ValueError(f"colour {c} is above {MAX_COLOUR}")
        s = frozenset(colours)
        tau[v] = shared.setdefault(s, s)
        label = r.get("label")
        if label is not None:
            _expect(label, dict, "label")
            t = tb.from_text(_field(label, "tableau", str))
            targets.add((t.size, t.offset))
            labels[v] = (_field(label, "molecule", int), t)
    if len(targets) > 1:
        raise ValueError("label tableaux must all hold the same entries")
    mu = {}
    entries = _field(obj, "mu", list)
    for e in entries:
        if type(e) is not dict:
            raise ValueError(f"weight entry must be dict, got {e!r}")
        try:
            u, v, w = e["from"], e["to"], e["w"]
        except KeyError as exc:
            raise ValueError(f"missing field {exc.args[0]!r}") from None
        if type(u) is not int or type(v) is not int or type(w) is not int:
            raise ValueError(f"weight entry {e!r} must hold ints")
        mu[u, v] = w
    if len(mu) != len(entries):
        raise ValueError("two weight entries for one (from, to) pair")
    return SColoredGraph(n, tau, mu, tuple(labels) if targets else None)


def from_json_str(s: str) -> SColoredGraph:
    import json

    try:
        obj = json.loads(s)
    except RecursionError:
        raise ValueError("document nested too deeply") from None
    return from_json_obj(obj)


def to_dot(g: SColoredGraph) -> str:
    lines = ["digraph wgraph {"]
    for v in g.vertices():
        tau = ",".join(map(str, _bits(g.masks[v])))
        name = str(v)
        if g.labels is not None and g.labels[v] is not None:
            name = g.labels[v][1].text()
        lines.append(f'  v{v} [label="{name}|{{{tau}}}"];')
    edges = set(g.simple_edges())
    for u, v in sorted(edges):
        lines.append(f"  v{u} -> v{v} [dir=none];")
    for v, u, w in g.arcs():
        if (min(u, v), max(u, v)) in edges:
            continue
        lines.append(f'  v{v} -> v{u} [label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
