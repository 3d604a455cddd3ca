"""Finite posets presented by their Hasse diagram, with interval posets
and valence polynomials.

A poset on elements ``0 .. m-1`` is built from its cover relation only.
Orientation convention: a cover ``(a, b)`` means ``a < b`` and nothing lies
strictly between, so edges point upward.  The constructor rejects input that
is not a Hasse diagram (cycles, or pairs already implied by transitivity)
rather than silently reducing it.

Two weight enumerators are attached to a poset P:

- the valence polynomial ``D_P(a, abar)``: each element contributes
  ``a**out_degree * abar**in_degree``, degrees taken in the Hasse diagram.
  It is multiplicative over direct products and swaps ``a, abar`` under
  dualisation.

- the interval valence polynomial ``DD_P(x, y, ybar, xbar)``: each interval
  ``u <= v`` contributes one monomial whose exponents count the cover edges
  leaving the interval's endpoints in four ways:

  * ``x``: covers ``u -< u'`` staying inside the interval (``u' <= v``),
  * ``y``: covers of ``v`` (all of them),
  * ``ybar``: lower covers of ``u`` (all of them),
  * ``xbar``: lower covers ``v' -< v`` staying inside (``u <= v'``).

  This refines the valence polynomial of the interval poset Int(P), whose
  elements are the intervals of P ordered componentwise:
  ``DD_P(a, a, abar, abar) = D_{Int(P)}(a, abar)``.
"""

from collections import Counter

from .polynomial import MultiPoly

VALENCE_VARS = ("a", "abar")
INTERVAL_VARS = ("x", "y", "ybar", "xbar")


def _iter_bits(x):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class FinitePoset:
    """Immutable poset on ``0 .. m-1`` given by Hasse covers.

    Order queries run on precomputed up-set bitsets, so ``leq`` is O(1).
    """

    __slots__ = ("m", "covers", "_up", "_upper", "_lower", "_topo")

    def __init__(self, m, covers):
        if not isinstance(m, int) or m < 0:
            raise ValueError(f"bad element count {m!r}")
        seen = set()
        for pair in covers:
            a, b = pair
            if not (0 <= a < m and 0 <= b < m):
                raise ValueError(f"cover {pair} out of range for m={m}")
            if a == b:
                raise ValueError(f"cover {pair} is a loop")
            seen.add((a, b))
        covers = tuple(sorted(seen))
        upper = [[] for _ in range(m)]
        lower = [[] for _ in range(m)]
        for a, b in covers:
            upper[a].append(b)
            lower[b].append(a)
        # Kahn's algorithm: a leftover element means a directed cycle
        indeg = [len(lower[v]) for v in range(m)]
        queue = [v for v in range(m) if not indeg[v]]
        topo = []
        while queue:
            nxt = []
            for v in queue:
                topo.append(v)
                for w in upper[v]:
                    indeg[w] -= 1
                    if not indeg[w]:
                        nxt.append(w)
            queue = nxt
        if len(topo) != m:
            raise ValueError("cover relation contains a cycle")
        up = [0] * m
        for v in reversed(topo):
            acc = 1 << v
            for w in upper[v]:
                acc |= up[w]
            up[v] = acc
        for a, b in covers:
            for c in upper[a]:
                if c != b and up[c] >> b & 1:
                    raise ValueError(
                        f"cover {(a, b)} is transitively implied; input is not a Hasse diagram")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "covers", covers)
        object.__setattr__(self, "_up", up)
        object.__setattr__(self, "_upper", tuple(tuple(sorted(u)) for u in upper))
        object.__setattr__(self, "_lower", tuple(tuple(sorted(l)) for l in lower))
        object.__setattr__(self, "_topo", tuple(topo))

    def __setattr__(self, name, value):
        raise AttributeError("FinitePoset is immutable")

    def __eq__(self, other):
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.m == other.m and self.covers == other.covers

    def __hash__(self):
        return hash((self.m, self.covers))

    def __repr__(self):
        return f"FinitePoset(m={self.m}, covers={list(self.covers)})"

    def leq(self, a, b):
        return self._up[a] >> b & 1 == 1

    def less(self, a, b):
        return a != b and self.leq(a, b)

    def upper_covers(self, a):
        return self._upper[a]

    def lower_covers(self, a):
        return self._lower[a]

    def out_degree(self, a):
        return len(self._upper[a])

    def in_degree(self, a):
        return len(self._lower[a])

    def up_set(self, a):
        """Elements >= a, ascending."""
        return list(_iter_bits(self._up[a]))

    def topological_order(self):
        return self._topo

    def minimal_elements(self):
        return [v for v in range(self.m) if not self._lower[v]]

    def maximal_elements(self):
        return [v for v in range(self.m) if not self._upper[v]]

    def dual(self):
        """Same elements, all covers reversed."""
        return FinitePoset(self.m, [(b, a) for a, b in self.covers])

    def product(self, other):
        """Direct product; element ``(p, q)`` maps to index ``p * other.m + q``."""
        mq = other.m
        covers = []
        for a, b in self.covers:
            for q in range(mq):
                covers.append((a * mq + q, b * mq + q))
        for a, b in other.covers:
            for p in range(self.m):
                covers.append((p * mq + a, p * mq + b))
        return FinitePoset(self.m * mq, covers)

    def intervals(self):
        """All pairs ``(lo, hi)`` with ``lo <= hi``, lexicographic."""
        out = []
        for lo in range(self.m):
            for hi in _iter_bits(self._up[lo]):
                out.append((lo, hi))
        return out

    def interval_poset(self):
        """Poset of intervals ordered componentwise.

        Returns ``(Int(P), intervals)`` where index ``i`` of Int(P) is the
        interval ``intervals[i]``; the list is lexicographic in ``(lo, hi)``.
        Covers of ``(u, v)`` raise exactly one endpoint by one cover while
        staying an interval.
        """
        ivs = self.intervals()
        index = {iv: i for i, iv in enumerate(ivs)}
        covers = []
        for i, (lo, hi) in enumerate(ivs):
            for c in self._upper[lo]:
                if self.leq(c, hi):
                    covers.append((i, index[(c, hi)]))
            for c in self._upper[hi]:
                covers.append((i, index[(lo, c)]))
        return FinitePoset(len(ivs), covers), ivs

    def interval_degrees(self, interval):
        """Four cover counts ``(dx, dy, dybar, dxbar)`` of an interval."""
        lo, hi = interval
        if not self.leq(lo, hi):
            raise ValueError(f"({lo}, {hi}) is not an interval")
        dx = sum(1 for c in self._upper[lo] if self.leq(c, hi))
        dy = len(self._upper[hi])
        dybar = len(self._lower[lo])
        dxbar = sum(1 for c in self._lower[hi] if self.leq(lo, c))
        return (dx, dy, dybar, dxbar)

    def valence_polynomial(self):
        """``D_P(a, abar)``: sum over elements of a^out * abar^in."""
        terms = {}
        for v in range(self.m):
            key = (len(self._upper[v]), len(self._lower[v]))
            terms[key] = terms.get(key, 0) + 1
        return MultiPoly(VALENCE_VARS, terms)

    def interval_valence_polynomial(self):
        """``DD_P(x, y, ybar, xbar)``: sum over intervals of the degree monomials.

        Counts the packed degree keys of ``_interval_keys``, so no interval
        is materialised; ``interval_degrees`` stays the per-interval
        definition the kernel is tested against.
        """
        width = self._key_width()
        counts = Counter()
        for _, keys in self._interval_keys(width):
            counts.update(keys.values())
        return MultiPoly(INTERVAL_VARS,
                         {unpack_degrees(k, width): c for k, c in counts.items()})

    def _key_width(self):
        """Bits per field of a packed degree key: enough for the largest degree."""
        return max(map(len, self._upper + self._lower), default=0).bit_length()

    def _interval_keys(self, width):
        """The interval kernel: for each ``lo``, yield ``(lo, keys)`` where
        ``keys`` maps every ``hi >= lo`` to its packed ``(dx, dy, dybar, dxbar)``
        (see ``unpack_degrees``); ``keys`` is not ordered by ``hi``.

        ``dx`` counts the up-sets of the upper covers of ``lo`` that contain
        ``hi``: the up-sets are summed in a bit-sliced counter, one bitset per
        binary digit, which splits ``up[lo]`` into one level set per value of
        ``dx``.  ``dxbar`` is the popcount of the lower covers of ``hi``
        inside ``up[lo]``.
        """
        up, upper = self._up, self._upper
        low = [0] * self.m
        for a, b in self.covers:
            low[b] |= 1 << a
        dy_field = [len(u) << 2 * width for u in upper]
        for lo in range(self.m):
            ups = up[lo]
            planes = []
            for c in upper[lo]:
                carry = up[c]
                for i, plane in enumerate(planes):
                    planes[i] = plane ^ carry
                    carry &= plane
                    if not carry:
                        break
                if carry:
                    planes.append(carry)
            base = len(self._lower[lo]) << width
            keys = {}
            for dx in range(1 << len(planes)):
                level = ups
                for i, plane in enumerate(planes):
                    level &= plane if dx >> i & 1 else ~plane
                if not level:
                    continue
                head = dx << 3 * width | base
                # bin() once per level: each `x & -x` step would copy the bitset
                bits = bin(level)[:1:-1]
                hi = bits.find("1")
                while hi >= 0:
                    keys[hi] = head | dy_field[hi] | (low[hi] & ups).bit_count()
                    hi = bits.find("1", hi + 1)
            yield lo, keys

    def to_json(self):
        return {"m": self.m, "covers": [list(c) for c in self.covers]}

    @classmethod
    def from_json(cls, data):
        return cls(data["m"], [tuple(c) for c in data["covers"]])


def unpack_degrees(key, width):
    """``(dx, dy, dybar, dxbar)`` from a packed key of ``_interval_keys``."""
    mask = (1 << width) - 1
    return (key >> 3 * width, key >> 2 * width & mask, key >> width & mask, key & mask)


def _element_profiles(p):
    """Per-element invariant (in, out, height, depth) used to prune search."""
    height = [0] * p.m
    for v in p.topological_order():
        for w in p.upper_covers(v):
            height[w] = max(height[w], height[v] + 1)
    depth = [0] * p.m
    for v in reversed(p.topological_order()):
        for w in p.lower_covers(v):
            depth[w] = max(depth[w], depth[v] + 1)
    return [(p.in_degree(v), p.out_degree(v), height[v], depth[v]) for v in range(p.m)]


def are_isomorphic(p, q):
    """Brute-force poset isomorphism test, meant for small posets.

    Elements are matched within classes of equal local profile, extending a
    partial map only when it preserves covers in both directions.
    """
    if p.m != q.m or len(p.covers) != len(q.covers):
        return False
    prof_p = _element_profiles(p)
    prof_q = _element_profiles(q)
    if sorted(prof_p) != sorted(prof_q):
        return False
    candidates = [[w for w in range(q.m) if prof_q[w] == prof_p[v]] for v in range(p.m)]
    order = sorted(range(p.m), key=lambda v: len(candidates[v]))
    image = [-1] * p.m
    used = [False] * q.m

    def consistent(v, w):
        for v2 in p.upper_covers(v):
            if image[v2] >= 0 and image[v2] not in q.upper_covers(w):
                return False
        for v2 in p.lower_covers(v):
            if image[v2] >= 0 and image[v2] not in q.lower_covers(w):
                return False
        for v2 in order:
            w2 = image[v2]
            if w2 < 0:
                continue
            if (v2 in p.upper_covers(v)) != (w2 in q.upper_covers(w)):
                return False
            if (v2 in p.lower_covers(v)) != (w2 in q.lower_covers(w)):
                return False
        return True

    def extend(k):
        if k == p.m:
            return True
        v = order[k]
        for w in candidates[v]:
            if not used[w] and consistent(v, w):
                image[v] = w
                used[w] = True
                if extend(k + 1):
                    return True
                image[v] = -1
                used[w] = False
        return False

    return extend(0)
