"""Tamari lattices on plane binary trees, canopies and interval statistics.

Trees are nested pairs: a leaf is ``None`` and an internal node is
``(left, right)``.  The size of a tree is its number of internal nodes.
The text encoding writes a leaf as ``o`` and a node as ``(left right)``.

The lattice on trees of size n is generated by the rotation
``(A, (B, C)) -> ((A, B), C)`` applied at any node whose right child is
internal, oriented so that the right comb (no internal left children) is the
minimum and the left comb the maximum.  These rotations are exactly the
Hasse covers.

The canopy of a tree is the word of length n+1 over {L, R} reading its
leaves from left to right, labelling a leaf by the side it hangs from its
parent.  One rotation changes at most one canopy letter, and only from L to
R, so canopies are monotone along the order.  An interval with equal
canopies is called synchronous.

The left-border decomposition cuts a tree along its left spine into
indecomposable factors (trees whose root has a leaf as left child); the
sizes give a composition of n which coarsens weakly along the order.
"""

import reprlib
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .poset import FinitePoset


def _tree(t):
    """``t`` itself if it is a tree: None or a (left, right) pair; otherwise
    ``ValueError``.  The per-tree walks check each node before reading it."""
    if t is not None and (type(t) is not tuple or len(t) != 2):
        raise ValueError(f"not a tree: {reprlib.repr(t)} is not a (left, right) pair")
    return t


def _left_spine(t):
    """The internal nodes on the left border of t, root first; ``ValueError``
    at the first node that is neither None nor a (left, right) pair."""
    spine = []
    while _tree(t) is not None:
        spine.append(t)
        t = t[0]
    return spine


def size(t):
    """Number of internal nodes, counted spine by spine with an explicit stack."""
    count, stack = 0, [t]
    while stack:
        spine = _left_spine(stack.pop())
        count += len(spine)
        stack.extend(node[1] for node in spine)
    return count


def encode(t):
    """Text form: ``o`` for a leaf, ``(left right)`` for a node; written
    with an explicit stack, so any depth works."""
    out, stack = [], [_tree(t)]
    while stack:
        node = stack.pop()
        if node is None:
            out.append("o")
        elif type(node) is str:  # a separator pushed below; trees hold no str
            out.append(node)
        else:
            out.append("(")
            stack += (")", _tree(node[1]), " ", _tree(node[0]))
    return "".join(out)


def decode(text):
    """The tree written as ``text`` (see ``encode``), parsed with an explicit
    stack so that the nesting depth is not bounded by the recursion limit."""
    if not isinstance(text, str):
        raise TypeError(f"tree text must be a str, got {type(text).__name__}")
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    open_nodes = []  # the children read so far of each unclosed node
    for pos, tok in enumerate(tokens):
        if tok == "(":
            open_nodes.append([])
            continue
        if tok == "o":
            node = None
        elif tok == ")" and open_nodes and len(open_nodes[-1]) == 2:
            node = tuple(open_nodes.pop())
        else:
            raise ValueError(f"unexpected token {tok!r} in {text!r}")
        if not open_nodes:
            if pos != len(tokens) - 1:
                raise ValueError(f"trailing tokens in {text!r}")
            return node
        if len(open_nodes[-1]) == 2:
            raise ValueError(f"missing ')' in {text!r}")
        open_nodes[-1].append(node)
    raise ValueError(f"unexpected end of tree text {text!r}")


def _tree_tables(n):
    """The trees of every size s = 0..n in encoding order, as tables.

    ``shapes[s][i]`` is the i-th tree of size s as ``(left size, left index,
    right index)`` into the smaller tables, and ``trees[s][i]`` the same tree
    as nested pairs, sharing its subtrees with the smaller tables.  The trees
    with one left child are consecutive and follow their right children's
    order, so ``(ls, li, ri)`` is tree ``first[s][ls][li] + ri`` of size s.

    Since ``(`` sorts before ``o`` and no encoding is a prefix of another,
    encoding order compares left children first, across sizes, with the
    leaf last.  ``merged[b]`` lists the trees of size <= b as ``(size, index)``
    in that order; the size-s table takes its left children from
    ``merged[s - 1]``.
    """
    shapes, trees, first, merged = [[None]], [[None]], [None], [[(0, 0)]]
    for s in range(1, n + 1):
        shape, tree = [], []
        starts = [[0] * len(t) for t in trees]
        for ls, li in merged[s - 1]:
            starts[ls][li] = len(shape)
            left = trees[ls][li]
            for ri, right in enumerate(trees[s - 1 - ls]):
                shape.append((ls, li, ri))
                tree.append((left, right))
        shapes.append(shape)
        trees.append(tree)
        first.append(starts)
        if s < n:
            # (L, R) with |L| <= s - 1 and |R| <= s - 1 - |L|, by L, then R; the leaf last
            merged.append([(ls + rs + 1, first[ls + rs + 1][ls][li] + ri)
                           for ls, li in merged[s - 1] for rs, ri in merged[s - 1 - ls]]
                          + [(0, 0)])
    return shapes, trees, first


def enumerate_trees(n):
    """All trees of size n, sorted by their text encoding: the size-n table
    of the per-size tables that also build ``tamari_lattice``."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"bad tree size {n!r}")
    return tuple(_tree_tables(n)[1][n])


def rotation_covers(t):
    """Trees one rotation above t, in preorder of the rotated node.

    Each cover copies the path from the root to its rotated node, so a walk
    with an explicit stack of those paths serves any depth."""
    out = []
    stack = [(_tree(t), None)]  # (node, path): path links (parent, went_left, parent's path)
    while stack:
        node, path = stack.pop()
        if node is None:
            continue
        left, right = node
        if _tree(right) is not None:
            cover = ((left, right[0]), right[1])
            link = path
            while link is not None:
                parent, went_left, link = link
                cover = (cover, parent[1]) if went_left else (parent[0], cover)
            out.append(cover)
        stack.append((right, (node, False, path)))
        stack.append((_tree(left), (node, True, path)))
    return out


def canopy(t):
    """Leaf word over {L, R}, left to right; empty for the single leaf.
    Walked with an explicit stack, so any depth works."""
    if _tree(t) is None:
        return ""
    out, stack = [], [(t[1], "R"), (t[0], "L")]
    while stack:
        node, side = stack.pop()
        if _tree(node) is None:
            out.append(side)
        else:
            stack += ((node[1], "R"), (node[0], "L"))
    return "".join(out)


def left_border_factors(t):
    """Indecomposable factors cut along the left spine, innermost first.

    Grafting the factors back left to right restores the tree; the last
    factor contains the original root.
    """
    return [(None, v[1]) for v in reversed(_left_spine(t))]


def composition(t):
    """Sizes of the left-border factors; a composition of size(t)."""
    return tuple(size(f) for f in left_border_factors(t))


class TamariLattice:
    """Rotation order on all trees of a fixed size, as a concrete poset.

    ``trees[i]`` is the tree at poset index ``i``; trees are indexed in
    encoding order.  ``canopies[i]`` caches the canopy word of ``trees[i]``.
    Every upper cover has the smaller index, so the maximum is 0 and the
    minimum the last index: a rotation ``(A, (B, C)) -> ((A, B), C)`` first
    changes the text at the leftmost leaf of A, ``o`` in the lower tree and
    ``(`` in the upper, and ``(`` sorts first.
    """

    __slots__ = ("n", "trees", "index", "poset", "canopies")

    def __init__(self, n, trees, index, poset, canopies):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "trees", trees)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "canopies", canopies)

    def __setattr__(self, name, value):
        raise AttributeError("TamariLattice is immutable")

    def as_index(self, t):
        if isinstance(t, int):
            if isinstance(t, bool) or not 0 <= t < len(self.trees):
                raise ValueError(f"tree index {t!r} out of range")
            return t
        if t not in self.index:
            raise ValueError(f"{reprlib.repr(t)} is not a tree of size {self.n}")
        return self.index[t]

    def leq(self, s, t):
        return self.poset.leq(self.as_index(s), self.as_index(t))

    def minimum(self):
        return len(self.trees) - 1

    def maximum(self):
        return 0

    def __repr__(self):
        return f"TamariLattice(n={self.n}, trees={len(self.trees)})"


def _lattice_tables(n):
    """The size-n trees in encoding order, their canopy words and their
    rotation covers as ``(lower, upper)`` index pairs, read off the per-size
    tables of ``_tree_tables`` one size at a time, with no walk of any tree.

    The canopy of ``(L, R)`` is the word of L followed by the word of R, a
    leaf child reading ``L`` or ``R``.  Its covers are the root rotation
    ``(A, (B, C)) -> ((A, B), C)``, one table lookup, then the covers of L
    and of R re-indexed: the order of ``rotation_covers``.  Each tree's
    covers are then sorted, so the pairs come out ascending, the order the
    poset constructor sorts in least time.  The tables are freed on return,
    before the poset is built.
    """
    shapes, trees, first = _tree_tables(n)
    # per size, per tree: its canopy word and the indices of its covers
    words, upper = [[""]], [[()]]
    for s in range(1, n + 1):
        words_s, upper_s = [], []
        starts = first[s]
        for i, (ls, li, ri) in enumerate(shapes[s]):
            rs = s - 1 - ls
            words_s.append((words[ls][li] or "L") + (words[rs][ri] or "R"))
            covers = []
            if rs:
                bs, bi, ci = shapes[rs][ri]
                ab = ls + bs + 1  # the size of (A, B)
                covers.append(starts[ab][first[ab][ls][li] + bi] + ci)
            left_start = starts[ls]
            covers += [left_start[j] + ri for j in upper[ls][li]]
            covers += [i - ri + j for j in upper[rs][ri]]
            covers.sort()
            upper_s.append(covers)
        words.append(words_s)
        upper.append(upper_s)
    # one int object per element, shared by all its pairs and kept by the poset
    ids = list(range(len(trees[n])))
    return trees[n], words[n], [(i, ids[j]) for i, js in zip(ids, upper[n]) for j in js]


@lru_cache(maxsize=None, typed=True)
def tamari_lattice(n):
    """The rotation lattice on trees of size n, cached: 5.1 MB traced at
    n = 9 and 31 MB at n = 10 with the smaller trees (its subtrees), two
    thirds of it the up-set bitsets; the build peaks at 5.4 and 33 MB and
    takes about 30 and 150 ms (in-process best of 7, 2-vCPU VM, Python
    3.11).

    Built from per-size tables (``_lattice_tables``) in one pass over the
    sizes; the per-tree ``rotation_covers``, ``canopy`` and ``encode`` are
    not called, and the tests hold the build to them.  In encoding order
    every upper cover has the smaller index (see ``TamariLattice``).
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"lattice size must be a positive integer, got {n!r}")
    trees, canopies, covers = _lattice_tables(n)
    index = {t: i for i, t in enumerate(trees)}
    return TamariLattice(n, tuple(trees), index, FinitePoset(len(trees), covers),
                         tuple(canopies))


def _interval(lat, lo, hi):
    """The tree indices of ``lo <= hi`` in ``lat``; ``TypeError`` if ``lat``
    is not a ``TamariLattice``, ``ValueError`` if the pair is no interval."""
    if not isinstance(lat, TamariLattice):
        raise TypeError(f"expected a TamariLattice, got {type(lat).__name__}")
    lo = lat.as_index(lo)
    hi = lat.as_index(hi)
    if not lat.poset.leq(lo, hi):
        raise ValueError(f"({lo}, {hi}) is not an interval")
    return lo, hi


def interval_canopy_word(lat, lo, hi):
    """Word over {LL, LR, RR} pairing the canopy letters of an interval.

    Letter i is the pair (canopy(lo)[i], canopy(hi)[i]); RL cannot occur
    since canopies only move from L to R upward.
    """
    lo, hi = _interval(lat, lo, hi)
    return tuple(a + b for a, b in zip(lat.canopies[lo], lat.canopies[hi]))


def is_synchronous(lat, lo, hi):
    """Whether the interval endpoints have equal canopies."""
    lo, hi = _interval(lat, lo, hi)
    return lat.canopies[lo] == lat.canopies[hi]


class IntervalStat(NamedTuple):
    """One interval of a Tamari lattice with all exported statistics.

    ``lo``/``hi`` are tree indices; ``dx, dy, dybar, dxbar`` the four cover
    counts; ``q`` the length of a longest saturated chain from lo to hi
    (``None`` when not computed); ``ll``/``rr`` count the LL/RR letters of
    the interval canopy word, each minus one; ``sync`` flags equal canopies.
    """

    n: int
    lo: int
    hi: int
    dx: int
    dy: int
    dybar: int
    dxbar: int
    q: 'int | None'
    ll: int
    rr: int
    sync: bool


CSV_HEADER = ",".join(IntervalStat._fields)


def _longest_chain_from(upper, his):
    """Longest saturated chain length to each element of ``his``, the up-set
    of some ``lo``, from ``lo``.  Every such chain lies inside the up-set, so
    the walk visits only ``his``, by decreasing index, which reaches each
    element before its upper covers (``upper``; see ``TamariLattice``)."""
    dist = dict.fromkeys(his, 0)
    for v in sorted(his, reverse=True):
        base = dist[v] + 1
        for w in upper[v]:
            if dist[w] < base:
                dist[w] = base
    return dist


def _interval_classes(lat, with_q, table):
    """The interval kernel reduced to classes, the one step shared by the
    records, the CSV rows and the histogram: for each ``lo`` yield
    ``(lo, ids)``, where ``ids`` maps each ``hi >= lo`` (in kernel order, see
    ``FinitePoset._interval_keys``) to the class id of the interval, an
    index into ``table``.  Each class is appended to ``table`` once, when
    first met and before its ``lo`` is yielded, as ``(dx, dy, dybar, dxbar,
    q, ll, rr, sync)`` (``q`` None without q).

    A class is memoised here by one packed int: from the bottom, the packed
    degree key, then the numbers of R letters in the canopies of ``hi`` and
    of ``lo``, 4 bits each (at most n + 1 <= 10), then q (0 without q).
    Canopies only move from L to R upward, so the R letters of ``lo`` are R
    in ``hi`` too: ``ll = n - R(hi)``, ``rr = R(lo) - 1``, and the interval
    is synchronous iff ``R(lo) == R(hi)``.
    """
    n, poset = lat.n, lat.poset
    width = 4 * poset._width  # the bits of the packed degree key
    r = [word.count("R") << width for word in lat.canopies]  # R(t), in its field
    index = {}  # packed class -> class id, in table order
    class_id = index.setdefault
    for lo, keys in poset._interval_keys():
        rlo = r[lo] << 4
        if with_q:
            # the elements come from the kernel, so the q walk reads the cover
            # lists without the element checks of ``upper_covers``
            dist = _longest_chain_from(poset._upper, keys)
            ids = {hi: class_id(key | r[hi] | rlo | dist[hi] << width + 8, len(index))
                   for hi, key in keys.items()}
        else:
            ids = {hi: class_id(key | r[hi] | rlo, len(index)) for hi, key in keys.items()}
        if len(table) < len(index):  # decode the classes first met at this lo
            for cls in list(index)[len(table):]:
                r_hi, r_lo = cls >> width & 15, cls >> width + 4 & 15
                table.append((*poset._degrees(cls & (1 << width) - 1),
                              cls >> width + 8 if with_q else None,
                              n - r_hi, r_lo - 1, r_lo == r_hi))
        yield lo, ids


def _records(lat, with_q):
    n = lat.n
    table = []
    new = tuple.__new__  # as IntervalStat._make, without its length check
    for lo, ids in _interval_classes(lat, with_q, table):
        for hi in sorted(ids):
            yield new(IntervalStat, (n, lo, hi) + table[ids[hi]])


def _check_statistics_args(n, with_q):
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= 9:
        raise ValueError(f"interval statistics support 1 <= n <= 9, got {n!r}")
    if with_q is None:
        with_q = n <= 7
    elif type(with_q) is not bool:
        raise TypeError(f"with_q must be None, True or False, got {with_q!r}")
    if with_q and n > 7:
        raise ValueError(f"the chain statistic q is supported for n <= 7, got n={n}")
    return with_q


def interval_statistics(n, with_q=None):
    """An iterator over the statistics of every interval of the size-n
    lattice, in (lo, hi) order.

    Degree statistics support n <= 9; the longest-chain statistic q is
    restricted to n <= 7, where the default computes it.  The arguments are
    checked at the call, before the first record: ``TypeError`` for a
    ``with_q`` other than None, True or False.  The records are read off the
    interval classes of the poset's kernel (``_interval_classes``).  Nothing
    caches them; ``interval_csv`` writes the same rows without them.
    """
    with_q = _check_statistics_args(n, with_q)
    return _records(tamari_lattice(n), with_q)


class IntervalClass(NamedTuple):
    """The statistics of an ``IntervalStat`` without ``n``, ``lo`` and
    ``hi``, plus three flags: ``diagonal`` (lo == hi), ``lo_minimal`` (lo is
    the minimum) and ``hi_maximal`` (hi is the maximum).  Intervals with
    equal classes are counted together by ``interval_histogram``."""

    dx: int
    dy: int
    dybar: int
    dxbar: int
    q: 'int | None'
    ll: int
    rr: int
    sync: bool
    diagonal: bool
    lo_minimal: bool
    hi_maximal: bool


class IntervalHistogram(NamedTuple):
    """``counts`` maps each ``IntervalClass`` to its number of intervals
    (read-only); ``extremal`` lists the ``(lo, hi)`` pairs of the
    doubly-extremal intervals, dx + dy = dxbar + dybar = n - 1, in kernel
    order."""

    counts: MappingProxyType
    extremal: tuple


@lru_cache(maxsize=None, typed=True)
def interval_histogram(n):
    """The intervals of the size-n lattice counted by ``IntervalClass``,
    cached: 653 classes for the 16,965 intervals at n = 7.  Same range and
    q default as ``interval_statistics``; counted straight from the class
    ids of ``_interval_classes``, each with its three flags, so no
    ``IntervalStat`` is built, and the doubly-extremal condition is tested
    once per class on its decoded row."""
    with_q = _check_statistics_args(n, None)
    lat = tamari_lattice(n)
    bottom, top = lat.minimum(), lat.maximum()
    table, extremal, counts, pairs = [], [], {}, []
    for lo, ids in _interval_classes(lat, with_q, table):
        extremal += [dx + dy == dybar + dxbar == n - 1
                     for dx, dy, dybar, dxbar, *_ in table[len(extremal):]]
        at_bottom = (lo == bottom) << 1
        for hi, i in ids.items():
            # the class id and the flags diagonal, lo_minimal, hi_maximal
            raw = i << 3 | (hi == lo) << 2 | at_bottom | (hi == top)
            counts[raw] = counts.get(raw, 0) + 1
            if extremal[i]:
                pairs.append((lo, hi))
    classes = {IntervalClass(*table[raw >> 3], raw & 4 != 0, raw & 2 != 0, raw & 1 != 0): c
               for raw, c in counts.items()}
    return IntervalHistogram(MappingProxyType(classes), tuple(pairs))


@lru_cache(maxsize=None)
def _csv_tail(cls):
    """The CSV text of a row after ``n,lo,hi,``: its class, the record's
    fields after ``hi`` as a tuple, formatted once and cached; ``None``
    writes nothing and a bool writes 0 or 1."""
    return ",".join("" if v is None else f"{v:d}" for v in cls)


def stats_to_csv(records):
    """The CSV text of ``IntervalStat`` records: the header, then one line
    per record, each line terminated.  ``interval_csv`` writes the same text
    for a whole lattice without building the records."""
    lines = [CSV_HEADER] + [f"{r.n},{r.lo},{r.hi},{_csv_tail(r[3:])}" for r in records]
    return "\n".join(lines) + "\n"


def interval_csv(n):
    """An iterator over the CSV text of ``interval_statistics(n)``: the
    header, then one row per interval in (lo, hi) order, each piece a line
    with its terminator, so that the pieces joined are
    ``stats_to_csv(interval_statistics(n))``.  ``n`` is checked at the
    call.  Rows are read off the class table of ``_interval_classes``, so
    no ``IntervalStat`` is built and the text after ``n,lo,hi,`` is
    formatted once per class (146 classes at n = 8, 223 at n = 9)."""
    with_q = _check_statistics_args(n, None)
    return _csv_rows(tamari_lattice(n), with_q)


def _csv_rows(lat, with_q):
    yield CSV_HEADER + "\n"
    table, tails = [], []
    for lo, ids in _interval_classes(lat, with_q, table):
        tails += [_csv_tail(cls) + "\n" for cls in table[len(tails):]]
        head = f"{lat.n},{lo},"
        for hi in sorted(ids):
            yield f"{head}{hi},{tails[ids[hi]]}"


@lru_cache(maxsize=None, typed=True)
def interval_valence_polynomial(n):
    """The four-variable interval enumerator of the size-n lattice, counted
    by the poset's interval kernel without building any interval record.
    The cached polynomial is small (34 kB traced at n = 9, 45 kB at n = 10);
    the lattice it is counted on is cached by ``tamari_lattice``."""
    return tamari_lattice(n).poset.interval_valence_polynomial()


def valence_polynomial(n):
    """The two-variable valence enumerator of the size-n lattice itself."""
    return tamari_lattice(n).poset.valence_polynomial()
