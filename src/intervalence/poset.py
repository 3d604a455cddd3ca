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
    ``_width`` is the bits per field of the packed degree keys of
    ``_interval_keys``: enough for the largest degree.
    """

    __slots__ = ("m", "covers", "_up", "_upper", "_lower", "_topo", "_width")

    def __init__(self, m, covers):
        if type(m) is not int or m < 0:
            raise ValueError(f"bad element count {m!r}")
        checked = []
        for pair in covers:
            a, b = pair
            if type(a) is not int or type(b) is not int or not (0 <= a < m and 0 <= b < m):
                raise ValueError(f"cover {pair} out of range for m={m}")
            if a == b:
                raise ValueError(f"cover {pair} is a loop")
            # a plain tuple of checked ints is kept as is
            checked.append(pair if type(pair) is tuple else (a, b))
        # one sort, linear on input that is already ascending; then one copy
        # of each pair
        checked.sort()
        covers = []
        upper = [[] for _ in range(m)]
        lower = [[] for _ in range(m)]
        last = None
        for pair in checked:
            if pair != last:
                a, b = last = pair
                covers.append(pair)
                upper[a].append(b)
                lower[b].append(a)
        covers = tuple(covers)
        del checked
        # Kahn's algorithm: a leftover element means a directed cycle.  Each
        # emitted element joins the list of each of its lower covers, so
        # ``ordered[v]`` holds the upper covers of v in topological order.
        indeg = [len(lower[v]) for v in range(m)]
        queue = [v for v in range(m) if not indeg[v]]
        topo = []
        ordered = [[] for _ in range(m)]
        while queue:
            nxt = []
            for v in queue:
                topo.append(v)
                for a in lower[v]:
                    ordered[a].append(v)
                for w in upper[v]:
                    indeg[w] -= 1
                    if not indeg[w]:
                        nxt.append(w)
            queue = nxt
        if len(topo) != m:
            raise ValueError("cover relation contains a cycle")
        # the final forms now, before the up-sets grow; each list is
        # ascending, being filled from the sorted covers
        upper = tuple(map(tuple, upper))
        lower = tuple(map(tuple, lower))
        # up-sets in reverse topological order, each OR-ing the up-sets of
        # its upper covers in topological order: a cover (v, w) implied by
        # another cover w' < w of v finds w already in the running OR.
        # Each ordered list is dropped once read, which bounds the peak.
        up = [0] * m
        for v in reversed(topo):
            acc = 0
            for w in ordered[v]:
                if acc >> w & 1:
                    raise ValueError(
                        f"cover {(v, w)} is transitively implied; input is not a Hasse diagram")
                acc |= up[w]
            ordered[v] = None
            up[v] = acc | 1 << v
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "covers", covers)
        object.__setattr__(self, "_up", up)
        object.__setattr__(self, "_upper", upper)
        object.__setattr__(self, "_lower", lower)
        object.__setattr__(self, "_topo", tuple(topo))
        object.__setattr__(self, "_width",
                           max(map(len, upper + lower), default=0).bit_length())

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

    def _element(self, a):
        """``a``, checked to be an element: an int in ``0 .. m-1``."""
        if type(a) is not int or not 0 <= a < self.m:
            raise ValueError(f"element {a!r} out of range for m={self.m}")
        return a

    def leq(self, a, b):
        return self._up[self._element(a)] >> self._element(b) & 1 == 1

    def upper_covers(self, a):
        return self._upper[self._element(a)]

    def lower_covers(self, a):
        return self._lower[self._element(a)]

    def out_degree(self, a):
        return len(self.upper_covers(a))

    def in_degree(self, a):
        return len(self.lower_covers(a))

    def up_set(self, a):
        """Elements >= a, ascending."""
        return list(_iter_bits(self._up[self._element(a)]))

    def topological_order(self):
        return self._topo

    def dual(self):
        """Same elements, all covers reversed."""
        return FinitePoset(self.m, [(b, a) for a, b in self.covers])

    def product(self, other):
        """Direct product; element ``(p, q)`` maps to index ``p * other.m + q``."""
        if not isinstance(other, FinitePoset):
            raise TypeError(f"the product needs a FinitePoset, got {type(other).__name__}")
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
        up = self._up
        covers = []
        for i, (lo, hi) in enumerate(ivs):
            for c in self._upper[lo]:
                if up[c] >> hi & 1:
                    covers.append((i, index[(c, hi)]))
            for c in self._upper[hi]:
                covers.append((i, index[(lo, c)]))
        return FinitePoset(len(ivs), covers), ivs

    def interval_degrees(self, interval):
        """Four cover counts ``(dx, dy, dybar, dxbar)`` of an interval."""
        try:
            lo, hi = interval
        except (TypeError, ValueError):
            raise TypeError(f"an interval is a (lo, hi) pair, got {interval!r}") from None
        if not self.leq(lo, hi):
            raise ValueError(f"({lo}, {hi}) is not an interval")
        up = self._up
        dx = sum(1 for c in self._upper[lo] if up[c] >> hi & 1)
        dy = len(self._upper[hi])
        dybar = len(self._lower[lo])
        dxbar = sum(1 for c in self._lower[hi] if up[lo] >> c & 1)
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
        counts = Counter()
        for _, keys in self._interval_keys():
            counts.update(keys.values())
        return MultiPoly(INTERVAL_VARS, {self._degrees(k): c for k, c in counts.items()})

    def _degrees(self, key):
        """``(dx, dy, dybar, dxbar)`` from a packed key of ``_interval_keys``."""
        width = self._width
        mask = (1 << width) - 1
        return (key >> 3 * width, key >> 2 * width & mask, key >> width & mask, key & mask)

    def _interval_keys(self):
        """The interval kernel: for each ``lo``, yield ``(lo, keys)`` where
        ``keys`` maps every ``hi >= lo`` to its packed ``(dx, dy, dybar, dxbar)``
        (see ``_degrees``); ``keys`` is not ordered by ``hi``.

        ``dx`` counts the up-sets of the upper covers of ``lo`` that contain
        ``hi``: the up-sets are summed in a bit-sliced counter, one bitset per
        binary digit, which splits ``up[lo]`` into one level set per value of
        ``dx``.  ``dxbar`` is the popcount of the lower covers of ``hi``
        inside ``up[lo]``.
        """
        up, upper, width = self._up, self._upper, self._width
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

