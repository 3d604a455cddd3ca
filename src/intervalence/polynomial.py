"""Exact sparse multivariate polynomials, truncated power series and
real-rootedness certificates.

Every coefficient is a Python integer, so all arithmetic in this module is
exact.  Three types are provided:

- ``MultiPoly``: a sparse polynomial over a fixed, ordered tuple of variable
  names.  Exponent vectors are tuples aligned with the variable tuple.
- ``SeriesT``: a power series in an implicit variable ``t``, truncated at a
  fixed exclusive order ``N``, whose coefficients are ``MultiPoly`` values.
- ``UniPoly``: a dense univariate integer polynomial, used for Sturm-sequence
  root counting.

Variable names are plain ASCII strings; ``xbar``, ``ybar`` and ``abar`` stand
for the barred variables of the usual notation.

Text rendering sorts monomials by total degree (descending) and then by
graded reverse lexicographic order, so ``str`` output is deterministic.
JSON serialisation instead sorts terms by exponent vector in plain
lexicographic order.
"""

from fractions import Fraction
from math import gcd


def _display_key(exp):
    # graded reverse lexicographic, highest first
    return (-sum(exp), tuple(reversed(exp)))


class MultiPoly:
    """Sparse exact polynomial over an ordered universe of variables.

    ``terms`` maps exponent tuples to nonzero integer coefficients.  Two
    polynomials interoperate only if their universes are identical; use
    ``substitute`` or ``with_universe`` to move between universes.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ValueError(f"duplicate variable in universe {vars}")
        clean = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != len(vars):
                raise ValueError(f"exponent {exp} does not fit universe {vars}")
            if any(e < 0 or not isinstance(e, int) for e in exp):
                raise ValueError(f"bad exponent vector {exp}")
            if not isinstance(coeff, int):
                raise ValueError(f"non-integer coefficient {coeff!r}")
            if coeff:
                clean[exp] = clean.get(exp, 0) + coeff
                if not clean[exp]:
                    del clean[exp]
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, vars, terms):
        # internal fast path: terms already normalized
        self = object.__new__(cls)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def zero(cls, vars):
        return cls._raw(tuple(vars), {})

    @classmethod
    def constant(cls, vars, c):
        vars = tuple(vars)
        if not isinstance(c, int):
            raise ValueError(f"non-integer constant {c!r}")
        return cls._raw(vars, {(0,) * len(vars): c} if c else {})

    @classmethod
    def one(cls, vars):
        return cls.constant(vars, 1)

    @classmethod
    def variable(cls, vars, name):
        return cls.monomial(vars, {name: 1})

    @classmethod
    def monomial(cls, vars, exponents, coeff=1):
        """Single term ``coeff * prod(name**e)`` from a name -> exponent dict."""
        vars = tuple(vars)
        exp = [0] * len(vars)
        for name, e in exponents.items():
            if name not in vars:
                raise ValueError(f"variable {name!r} not in universe {vars}")
            exp[vars.index(name)] = e
        return cls(vars, {tuple(exp): coeff})

    def _check_universe(self, other):
        if self.vars != other.vars:
            raise ValueError(f"universe mismatch: {self.vars} vs {other.vars}")

    def is_zero(self):
        return not self.terms

    def is_monomial(self):
        return len(self.terms) == 1

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == MultiPoly.constant(self.vars, other).terms
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = MultiPoly.constant(self.vars, other)
        self._check_universe(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return MultiPoly._raw(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = MultiPoly.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, int):
                return NotImplemented
            if not other:
                return MultiPoly.zero(self.vars)
            return MultiPoly._raw(self.vars, {e: c * other for e, c in self.terms.items()})
        self._check_universe(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return MultiPoly._raw(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"bad exponent {k!r}")
        out = MultiPoly.one(self.vars)
        for _ in range(k):
            out = out * self
        return out

    def coefficient(self, exponents):
        """Coefficient of the monomial given as a name -> exponent dict."""
        exp = [0] * len(self.vars)
        for name, e in exponents.items():
            if name not in self.vars:
                raise ValueError(f"variable {name!r} not in universe {self.vars}")
            exp[self.vars.index(name)] = e
        return self.terms.get(tuple(exp), 0)

    def coefficients(self):
        return sorted(self.terms.values())

    def total_degree(self):
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def degree_in(self, name):
        i = self.vars.index(name)
        if not self.terms:
            return 0
        return max(e[i] for e in self.terms)

    def substitute(self, bindings, vars=None):
        """Substitute variables and optionally land in a new universe.

        ``bindings`` maps variable names to integers or to ``MultiPoly``
        values over the target universe.  Unbound variables must exist in the
        target universe and are carried over unchanged.
        """
        target = tuple(vars) if vars is not None else self.vars
        bound = {}
        for name, val in bindings.items():
            if name not in self.vars:
                raise ValueError(f"cannot bind {name!r}: not in universe {self.vars}")
            if isinstance(val, int):
                val = MultiPoly.constant(target, val)
            elif val.vars != target:
                raise ValueError(f"binding for {name!r} lives in {val.vars}, expected {target}")
            bound[name] = val
        images = []
        for name in self.vars:
            if name in bound:
                images.append(bound[name])
            else:
                if name not in target:
                    raise ValueError(f"unbound variable {name!r} missing from target {target}")
                images.append(MultiPoly.variable(target, name))
        if all(im.is_monomial() or im.is_zero() for im in images):
            # fast path: every image is a single term
            out = {}
            for exp, coeff in self.terms.items():
                acc_exp = [0] * len(target)
                acc_c = coeff
                for e, im in zip(exp, images):
                    if not e:
                        continue
                    if im.is_zero():
                        acc_c = 0
                        break
                    (iexp, ic), = im.terms.items()
                    acc_c *= ic ** e
                    for i, v in enumerate(iexp):
                        acc_exp[i] += v * e
                if not acc_c:
                    continue
                key = tuple(acc_exp)
                s = out.get(key, 0) + acc_c
                if s:
                    out[key] = s
                else:
                    del out[key]
            return MultiPoly._raw(target, out)
        result = MultiPoly.zero(target)
        powers = [{0: MultiPoly.one(target)} for _ in images]
        for exp, coeff in self.terms.items():
            term = MultiPoly.constant(target, coeff)
            for i, e in enumerate(exp):
                if not e:
                    continue
                cache = powers[i]
                if e not in cache:
                    p = max(cache)
                    while p < e:
                        cache[p + 1] = cache[p] * images[i]
                        p += 1
                term = term * cache[e]
            result = result + term
        return result

    def with_universe(self, vars):
        """Reindex into another universe; dropped variables must be absent."""
        target = tuple(vars)
        pos = {name: i for i, name in enumerate(target)}
        out = {}
        for exp, coeff in self.terms.items():
            new = [0] * len(target)
            for name, e in zip(self.vars, exp):
                if not e:
                    continue
                if name not in pos:
                    raise ValueError(f"variable {name!r} occurs but is absent from {target}")
                new[pos[name]] = e
            out[tuple(new)] = coeff
        return MultiPoly._raw(target, out)

    def permute_vars(self, mapping):
        """Rename variables by a bijection of the universe onto itself."""
        img = {name: mapping.get(name, name) for name in self.vars}
        if sorted(img.values()) != sorted(self.vars):
            raise ValueError(f"{mapping} is not a bijection of {self.vars}")
        # inv[j] = position of the variable whose image sits at position j
        inv = [0] * len(self.vars)
        for i, name in enumerate(self.vars):
            inv[self.vars.index(img[name])] = i
        out = {tuple(exp[inv[i]] for i in range(len(exp))): c for exp, c in self.terms.items()}
        return MultiPoly._raw(self.vars, out)

    def is_symmetric(self, mapping):
        """Whether the polynomial is invariant under a variable bijection."""
        return self.permute_vars(mapping) == self

    def support(self, vars=None):
        """Set of exponent vectors projected onto the given variables."""
        names = tuple(vars) if vars is not None else self.vars
        idx = [self.vars.index(name) for name in names]
        return {tuple(exp[i] for i in idx) for exp in self.terms}

    def degree_range(self, vars=None):
        """(min, max) total degree over the given variables."""
        if not self.terms:
            raise ValueError("zero polynomial has no degree range")
        names = tuple(vars) if vars is not None else self.vars
        idx = [self.vars.index(name) for name in names]
        degs = [sum(exp[i] for i in idx) for exp in self.terms]
        return (min(degs), max(degs))

    def exact_div(self, name):
        """Exact division by a single variable; every term must contain it."""
        i = self.vars.index(name)
        out = {}
        for exp, coeff in self.terms.items():
            if exp[i] < 1:
                raise ValueError(f"term {exp} not divisible by {name}")
            out[exp[:i] + (exp[i] - 1,) + exp[i + 1:]] = coeff
        return MultiPoly._raw(self.vars, out)

    def to_json(self):
        """List of ``{"coeff", "exp"}`` records, exponent-lexicographic."""
        return [
            {"coeff": self.terms[exp],
             "exp": {name: e for name, e in zip(self.vars, exp) if e}}
            for exp in sorted(self.terms)
        ]

    @classmethod
    def from_json(cls, data, vars):
        vars = tuple(vars)
        acc = MultiPoly.zero(vars)
        for rec in data:
            acc = acc + cls.monomial(vars, rec["exp"], rec["coeff"])
        return acc

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=_display_key):
            c = self.terms[exp]
            factors = []
            for name, e in zip(self.vars, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if factors:
                body = " ".join(factors)
                if abs(c) != 1:
                    body = f"{abs(c)} {body}"
            else:
                body = str(abs(c))
            parts.append(("- " if c < 0 else "+ ") + body)
        joined = " ".join(parts)
        return joined[2:] if joined.startswith("+ ") else "-" + joined[2:]

    def __repr__(self):
        return f"MultiPoly({self.vars}, {self})"


def divided_difference(p, q, name):
    """Exact quotient ``(p - q) / (name - 1)``.

    Raises ``ValueError`` when the numerator does not vanish at ``name = 1``.
    """
    diff = p - q
    i = diff.vars.index(name)
    groups = {}
    for exp, coeff in diff.terms.items():
        key = exp[:i] + exp[i + 1:]
        groups.setdefault(key, {})[exp[i]] = coeff
    out = {}
    for key, col in groups.items():
        # c_k = s_{k-1} - s_k with s = quotient coefficients, solved top down
        run = 0
        for k in range(max(col), 0, -1):
            run += col.get(k, 0)
            if run:
                out[key[:i] + (k - 1,) + key[i:]] = run
        if run + col.get(0, 0):
            raise ValueError(f"polynomial is not divisible by ({name} - 1)")
    return MultiPoly._raw(diff.vars, out)


class SeriesT:
    """Power series in ``t`` truncated at exclusive order ``N``.

    ``coeffs[k]`` is the ``MultiPoly`` coefficient of ``t**k`` for
    ``0 <= k < N``.  Orders ``N`` and beyond are unknown, not zero.
    """

    __slots__ = ("vars", "N", "coeffs")

    def __init__(self, vars, N, coeffs=None):
        if not isinstance(N, int) or N < 1:
            raise ValueError(f"truncation order must be a positive integer, got {N!r}")
        vars = tuple(vars)
        if coeffs is None:
            coeffs = [MultiPoly.zero(vars)] * N
        coeffs = list(coeffs)
        if len(coeffs) != N:
            raise ValueError(f"expected {N} coefficients, got {len(coeffs)}")
        for c in coeffs:
            if c.vars != vars:
                raise ValueError(f"coefficient universe {c.vars} differs from {vars}")
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("SeriesT is immutable")

    @classmethod
    def zero(cls, vars, N):
        return cls(vars, N)

    def coefficient(self, k):
        if not 0 <= k < self.N:
            raise ValueError(f"order {k} outside truncation window [0, {self.N})")
        return self.coeffs[k]

    def _check(self, other):
        if self.vars != other.vars or self.N != other.N:
            raise ValueError("series universes or truncation orders differ")

    def __eq__(self, other):
        if not isinstance(other, SeriesT):
            return NotImplemented
        return self.vars == other.vars and self.N == other.N and self.coeffs == other.coeffs

    def __add__(self, other):
        self._check(other)
        return SeriesT(self.vars, self.N, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return SeriesT(self.vars, self.N, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, (int, MultiPoly)):
            return SeriesT(self.vars, self.N, [c * other for c in self.coeffs])
        self._check(other)
        out = [MultiPoly.zero(self.vars) for _ in range(self.N)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= self.N:
                    break
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return SeriesT(self.vars, self.N, out)

    __rmul__ = __mul__

    def mul_tpoly(self, tcoeffs):
        """Multiply by an integer polynomial in ``t`` given low-to-high."""
        out = [MultiPoly.zero(self.vars) for _ in range(self.N)]
        for j, c in enumerate(tcoeffs):
            if not c:
                continue
            for i, a in enumerate(self.coeffs):
                if i + j >= self.N:
                    break
                out[i + j] = out[i + j] + a * c
        return SeriesT(self.vars, self.N, out)

    def substitute(self, bindings, vars=None):
        target = tuple(vars) if vars is not None else self.vars
        return SeriesT(target, self.N, [c.substitute(bindings, target) for c in self.coeffs])

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def constant_values(self):
        """The coefficients as plain integers; they must all be constants."""
        out = []
        for k, c in enumerate(self.coeffs):
            if c.total_degree() > 0:
                raise ValueError(f"coefficient of t^{k} is not constant: {c}")
            out.append(c.terms.get((0,) * len(self.vars), 0))
        return out

    def to_json(self):
        return {"N": self.N, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, data, vars):
        coeffs = [MultiPoly.from_json(rec, vars) for rec in data["coeffs"]]
        return cls(vars, data["N"], coeffs)

    def __str__(self):
        lines = []
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                lines.append(f"[t^{k}] {c}")
        return "\n".join(lines) if lines else "0"

    def __repr__(self):
        return f"SeriesT(vars={self.vars}, N={self.N})"


class UniPoly:
    """Dense univariate integer polynomial, low-to-high coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [int(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def from_multipoly(cls, p, name=None):
        """Convert a polynomial that is effectively univariate.

        Variables other than ``name`` must not occur.  When ``name`` is
        omitted it is inferred (a constant converts with any universe).
        """
        live = [v for i, v in enumerate(p.vars) if any(e[i] for e in p.terms)]
        if name is None:
            if len(live) > 1:
                raise ValueError(f"polynomial involves several variables: {live}")
            name = live[0] if live else (p.vars[0] if p.vars else None)
        elif [v for v in live if v != name]:
            raise ValueError(f"polynomial involves {live}, not only {name!r}")
        if name is None:
            return cls([p.terms.get((), 0)] if p.terms else [])
        i = p.vars.index(name)
        out = [0] * (p.degree_in(name) + 1) if p.terms else []
        for exp, coeff in p.terms.items():
            out[exp[i]] += coeff
        return cls(out)

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return UniPoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift_down(self, k):
        """Divide by ``z**k``; the low ``k`` coefficients must vanish."""
        if any(self.coeffs[:k]):
            raise ValueError(f"polynomial not divisible by z^{k}")
        return UniPoly(self.coeffs[k:])

    def trailing_zero_order(self):
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return 0

    def content(self):
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive(self):
        """Divide out the content; the sign of the leading term is kept."""
        g = self.content()
        return UniPoly([c // g for c in self.coeffs]) if g > 1 else self

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            if e == 0:
                body = str(abs(c))
            elif e == 1:
                body = "z" if abs(c) == 1 else f"{abs(c)} z"
            else:
                body = f"z^{e}" if abs(c) == 1 else f"{abs(c)} z^{e}"
            parts.append(("- " if c < 0 else "+ ") + body)
        joined = " ".join(parts)
        return joined[2:] if joined.startswith("+ ") else "-" + joined[2:]

    def __repr__(self):
        return f"UniPoly({self})"


def _fraction_divmod(num, den):
    """Long division over the rationals; returns (quotient, remainder)."""
    num = [Fraction(c) for c in num.coeffs]
    den = [Fraction(c) for c in den.coeffs]
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    quo = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    while len(num) >= len(den) and any(num):
        while num and not num[-1]:
            num.pop()
        if len(num) < len(den):
            break
        q = num[-1] / den[-1]
        shift = len(num) - len(den)
        quo[shift] = q
        for i, d in enumerate(den):
            num[shift + i] -= q * d
        num.pop()
    return quo, num


def _clear_denominators(fracs):
    """Scale rationals by a positive factor into a primitive integer list."""
    if not any(fracs):
        return []
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in fracs]
    g = 0
    for c in ints:
        g = gcd(g, c)
    return [c // g for c in ints]


def polynomial_gcd(f, g):
    """Primitive gcd of two integer polynomials, positive leading term."""
    a, b = f.primitive(), g.primitive()
    while not b.is_zero():
        _, rem = _fraction_divmod(a, b)
        a, b = b, UniPoly(_clear_denominators(rem))
    if a.is_zero():
        return a
    return a if a.coeffs[-1] > 0 else -a


def exact_quotient(f, g):
    """Quotient of integer polynomials that must divide exactly."""
    quo, rem = _fraction_divmod(f, g)
    if any(rem):
        raise ValueError("division is not exact")
    if any(q.denominator != 1 for q in quo):
        raise ValueError("quotient is not integral")
    return UniPoly([int(q) for q in quo])


def squarefree_part(f):
    """The radical of ``f``: same roots, all simple."""
    if f.degree() < 1:
        return f.primitive()
    g = polynomial_gcd(f, f.derivative())
    if g.degree() < 1:
        return f.primitive()
    return exact_quotient(f.primitive(), g).primitive()


def sturm_sequence(f):
    """Sturm chain of ``f``: each step negates the remainder and is scaled
    to a primitive integer polynomial by a positive factor, which keeps all
    sign evaluations intact."""
    chain = [f.primitive()]
    d = f.derivative()
    if not d.is_zero():
        chain.append(d.primitive())
        while chain[-1].degree() > 0:
            _, rem = _fraction_divmod(chain[-2], chain[-1])
            nxt = UniPoly(_clear_denominators([-r for r in rem]))
            if nxt.is_zero():
                break
            chain.append(nxt)
    return chain


def _sign_changes(signs):
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def count_negative_real_roots(f):
    """Number of distinct real roots of ``f`` in the open interval
    ``(-inf, 0)``; requires ``f(0) != 0``."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f(0) == 0:
        raise ValueError("polynomial vanishes at 0; factor out z first")
    chain = sturm_sequence(squarefree_part(f))
    at_minus_inf = [(1 if p.coeffs[-1] > 0 else -1) * (-1) ** p.degree() for p in chain]
    at_zero = [(0 if p(0) == 0 else (1 if p(0) > 0 else -1)) for p in chain]
    return _sign_changes(at_minus_inf) - _sign_changes(at_zero)


def all_roots_real_negative(f):
    """Whether every complex root of ``f`` is real and strictly negative.

    Constants (no roots) pass vacuously.  A zero constant term means a root
    at the origin, which fails the strict test; callers who want to allow it
    should strip powers of ``z`` first (see ``UniPoly.shift_down``).
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree() == 0:
        return True
    if f.coeffs[-1] < 0:
        f = -f
    # necessary: a monic product of (z + r), r > 0, has all-positive coefficients
    if any(c <= 0 for c in f.coeffs):
        return False
    g = squarefree_part(f)
    return count_negative_real_roots(g) == g.degree()
