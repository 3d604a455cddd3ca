"""Exact sparse multivariate polynomials, truncated power series and
real-rootedness certificates.

Every coefficient is a Python integer, so all arithmetic in this module is
exact; the division steps of the Sturm chains stay in the integers too, with
no rationals.  Two types are provided:

- ``MultiPoly``: a sparse polynomial over a fixed, ordered tuple of variable
  names.  Exponent vectors are tuples aligned with the variable tuple, and
  every renaming or change of universe is a ``substitute`` call.
- ``SeriesT``: a power series in an implicit variable ``t``, truncated at a
  fixed exclusive order ``N``, whose coefficients are ``MultiPoly`` values.

The Sturm-sequence root counting works on a ``MultiPoly`` over exactly one
variable.

Variable names are plain ASCII strings; ``xbar``, ``ybar`` and ``abar`` stand
for the barred variables of the usual notation.

Text rendering sorts monomials by total degree (descending) and then by
graded reverse lexicographic order, so ``str`` output is deterministic.
JSON serialisation instead sorts terms by exponent vector in plain
lexicographic order.
"""

from collections.abc import Mapping
from math import gcd


def _display_key(exp):
    # graded reverse lexicographic, highest first
    return (-sum(exp), tuple(reversed(exp)))


def _universe(vars):
    """``vars`` as a tuple, checked to name each variable once; a bare str
    is ``TypeError``, not a tuple of its letters."""
    if isinstance(vars, str):
        raise TypeError(f"a universe is a sequence of variable names, not the str {vars!r}")
    vars = tuple(vars)
    if len(set(vars)) != len(vars):
        raise ValueError(f"duplicate variable in universe {vars}")
    return vars


def _mapping(obj, what):
    """``obj`` if it is a mapping keyed by variable names; ``TypeError``
    otherwise, before any of its keys is read."""
    if not isinstance(obj, Mapping):
        raise TypeError(f"{what} must be a mapping keyed by variable names, "
                        f"got {type(obj).__name__}")
    return obj


def _render(terms):
    """Text such as ``3 x y^2 - z + 1`` from ``(coeff, monomial)`` pairs,
    highest term first; ``monomial`` is ``"x y^2"``, or ``""`` for 1."""
    parts = []
    for c, monomial in terms:
        a = abs(c)
        body = (monomial if a == 1 else f"{a} {monomial}") if monomial else str(a)
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    joined = " ".join(parts)
    return joined[2:] if joined.startswith("+ ") else "-" + joined[2:]


class MultiPoly:
    """Sparse exact polynomial over an ordered universe of variables.

    ``terms`` maps exponent tuples to nonzero integer coefficients.  Two
    polynomials interoperate only if their universes are identical; use
    ``substitute`` to move between universes (``permute_vars`` is a
    ``substitute`` call).  A constant equals its int, so two constants are
    equal by value whatever their universes.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        vars = _universe(vars)
        if terms is not None and not isinstance(terms, dict):
            raise TypeError(f"terms must be a dict of exponent tuples, got {type(terms).__name__}")
        clean = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != len(vars):
                raise ValueError(f"exponent {exp} does not fit universe {vars}")
            if any(type(e) is not int or e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp}")
            if type(coeff) is not int:
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
        return cls._raw(_universe(vars), {})

    @classmethod
    def constant(cls, vars, c):
        vars = _universe(vars)
        if type(c) is not int:
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
        vars = _universe(vars)
        return cls(vars, {cls._raw(vars, {})._exponent(exponents): coeff})

    def _position(self, name):
        """Index of ``name`` in the universe; ``ValueError`` if it is absent."""
        if name not in self.vars:
            raise ValueError(f"variable {name!r} not in universe {self.vars}")
        return self.vars.index(name)

    def _exponent(self, exponents):
        """Exponent tuple of the monomial given as a name -> exponent dict."""
        exp = [0] * len(self.vars)
        for name, e in _mapping(exponents, "exponents").items():
            exp[self._position(name)] = e
        return tuple(exp)

    def _check_universe(self, other):
        if self.vars != other.vars:
            raise ValueError(f"universe mismatch: {self.vars} vs {other.vars}")

    def is_zero(self):
        return not self.terms

    def is_monomial(self):
        return len(self.terms) == 1

    def _constant_value(self):
        """The int a constant polynomial equals; None if it is not constant."""
        zero = (0,) * len(self.vars)
        return self.terms.get(zero, 0) if self.terms.keys() <= {zero} else None

    def __eq__(self, other):
        if type(other) is bool:
            return NotImplemented
        if isinstance(other, int):
            return self._constant_value() == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.vars != other.vars:
            value = self._constant_value()
            return value is not None and value == other._constant_value()
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its int (see ``__eq__``), so it hashes as that int
        value = self._constant_value()
        if value is not None:
            return hash(value)
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
            if type(other) is bool:
                raise ValueError(f"non-integer scalar {other!r}")
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
        if type(k) is not int or k < 0:
            raise ValueError(f"bad exponent {k!r}")
        out = MultiPoly.one(self.vars)
        for _ in range(k):
            out = out * self
        return out

    def coefficient(self, exponents):
        """Coefficient of the monomial given as a name -> exponent dict."""
        return self.terms.get(self._exponent(exponents), 0)

    def coefficients(self):
        return sorted(self.terms.values())

    def total_degree(self):
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def substitute(self, bindings, vars=None):
        """Substitute variables and optionally land in a new universe.

        ``bindings`` maps variable names to integers or to ``MultiPoly``
        values over the target universe.  Unbound variables must exist in the
        target universe and are carried over unchanged.
        """
        target = _universe(vars) if vars is not None else self.vars
        bound = {}
        for name, val in _mapping(bindings, "bindings").items():
            self._position(name)  # raises for a name outside the universe
            if isinstance(val, int):
                val = MultiPoly.constant(target, val)
            elif not isinstance(val, MultiPoly):
                raise TypeError(f"binding for {name!r} must be an int or a MultiPoly, got {val!r}")
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
        for exp, coeff in self.terms.items():
            term = MultiPoly.constant(target, coeff)
            for e, image in zip(exp, images):
                if e:
                    term = term * image ** e
            result = result + term
        return result

    def permute_vars(self, mapping):
        """Rename variables by a bijection of the universe onto itself."""
        mapping = _mapping(mapping, "mapping")
        img = {name: mapping.get(name, name) for name in self.vars}
        if sorted(img.values()) != sorted(self.vars):
            raise ValueError(f"{mapping} is not a bijection of {self.vars}")
        # substitute rejects a mapping key outside the universe
        return self.substitute({name: MultiPoly.variable(self.vars, new)
                                for name, new in mapping.items()})

    def is_symmetric(self, mapping):
        """Whether the polynomial is invariant under a variable bijection."""
        return self.permute_vars(mapping) == self

    def support(self, vars=None):
        """Set of exponent vectors projected onto the given variables."""
        names = _universe(vars) if vars is not None else self.vars
        idx = [self._position(name) for name in names]
        return {tuple(exp[i] for i in idx) for exp in self.terms}

    def exact_div(self, name):
        """Exact division by a single variable; every term must contain it."""
        i = self._position(name)
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

    def __str__(self):
        return _render([(self.terms[exp], " ".join([name if e == 1 else f"{name}^{e}"
                                                     for name, e in zip(self.vars, exp) if e]))
                        for exp in sorted(self.terms, key=_display_key)])

    def __repr__(self):
        return f"MultiPoly({self.vars}, {self})"


def cauchy_coefficient(a, b, k):
    """Coefficient of ``t**k`` in the product of two series given by their
    ``MultiPoly`` coefficient lists: the sum of ``a[i] * b[k - i]`` over
    ``0 <= i <= k``, skipping zero factors."""
    out = MultiPoly.zero(a[0].vars)
    for i in range(k + 1):
        if not (a[i].is_zero() or b[k - i].is_zero()):
            out = out + a[i] * b[k - i]
    return out


def divided_difference(p, q, name):
    """Exact quotient ``(p - q) / (name - 1)``.

    Raises ``ValueError`` when the numerator does not vanish at ``name = 1``;
    ``q`` may be an int.
    """
    if not isinstance(p, MultiPoly):
        raise TypeError(f"expected a MultiPoly, got {type(p).__name__}")
    diff = p - q
    i = diff._position(name)
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
        if isinstance(N, bool) or not isinstance(N, int) or N < 1:
            raise ValueError(f"truncation order must be a positive integer, got {N!r}")
        vars = _universe(vars)
        if coeffs is None:
            coeffs = [MultiPoly.zero(vars)] * N
        coeffs = list(coeffs)
        if len(coeffs) != N:
            raise ValueError(f"expected {N} coefficients, got {len(coeffs)}")
        for c in coeffs:
            if not isinstance(c, MultiPoly):
                raise TypeError(f"series coefficient must be a MultiPoly, got {type(c).__name__}")
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
        if not isinstance(other, SeriesT):
            return NotImplemented
        self._check(other)
        return SeriesT(self.vars, self.N, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, (int, MultiPoly)):
            return SeriesT(self.vars, self.N, [c * other for c in self.coeffs])
        if not isinstance(other, SeriesT):
            return NotImplemented
        self._check(other)
        return SeriesT(self.vars, self.N, [cauchy_coefficient(self.coeffs, other.coeffs, k)
                                           for k in range(self.N)])

    __rmul__ = __mul__

    def substitute(self, bindings, vars=None):
        target = _universe(vars) if vars is not None else self.vars
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

    def __str__(self):
        lines = []
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                lines.append(f"[t^{k}] {c}")
        return "\n".join(lines) if lines else "0"

    def __repr__(self):
        return f"SeriesT(vars={self.vars}, N={self.N})"


# Real-rootedness certificates.  These take a ``MultiPoly`` over exactly one
# variable; the private helpers below read it as a univariate polynomial.

def _univariate(f):
    """Check that ``f`` is a nonzero ``MultiPoly`` over exactly one variable."""
    if not isinstance(f, MultiPoly):
        raise TypeError(f"expected a MultiPoly, got {type(f).__name__}")
    if len(f.vars) != 1:
        raise ValueError(f"expected a polynomial in one variable, got universe {f.vars}")
    if f.is_zero():
        raise ValueError("zero polynomial")


def _degree(f):
    """Degree in the single variable; -1 for the zero polynomial."""
    return max((e for e, in f.terms), default=-1)


def _lead(f):
    return f.terms[(_degree(f),)]


def _primitive(f):
    """Divide out the content; the sign of the leading term is kept."""
    g = gcd(*f.terms.values())
    return MultiPoly._raw(f.vars, {e: c // g for e, c in f.terms.items()}) if g > 1 else f


def _derivative(f):
    return MultiPoly._raw(f.vars, {(e - 1,): e * c for (e,), c in f.terms.items() if e})


def _remainder(a, b):
    """Remainder of ``a`` by ``b`` times a positive factor, made primitive.

    Each step scales the running remainder by ``|lc(b)| > 0`` so that the
    division stays in the integers and the signs are those over the rationals.
    ``sturm_sequence``, the one caller, passes a nonzero ``b``."""
    db, lb = _degree(b), _lead(b)
    scale, sign = abs(lb), (1 if lb > 0 else -1)
    rem = a
    while _degree(rem) >= db:
        step = MultiPoly._raw(a.vars, {(_degree(rem) - db,): sign * _lead(rem)})
        rem = rem * scale - step * b
    return _primitive(rem)


def sturm_sequence(f):
    """Sturm chain of a nonzero ``f``: each step negates the remainder and
    is scaled to a primitive integer polynomial by a positive factor, which
    keeps all sign evaluations intact."""
    _univariate(f)
    chain = [_primitive(f)]
    d = _derivative(f)
    if not d.is_zero():
        chain.append(_primitive(d))
        while _degree(chain[-1]) > 0:
            nxt = -_remainder(chain[-2], chain[-1])
            if nxt.is_zero():
                break
            chain.append(nxt)
    return chain


def _sign_changes(values):
    values = [v for v in values if v]
    return sum(1 for a, b in zip(values, values[1:]) if a * b < 0)


def all_roots_real_negative(f):
    """Whether every complex root of ``f`` is real and strictly negative.

    Constants (no roots) pass vacuously.  A zero constant term means a root
    at the origin, which fails the strict test; callers who want to allow it
    should divide out the power of the variable first.
    """
    _univariate(f)
    if _degree(f) == 0:
        return True
    if _lead(f) < 0:
        f = -f
    # necessary: a monic product of (z + r), r > 0, has all-positive coefficients
    if len(f.terms) <= _degree(f) or any(c < 0 for c in f.terms.values()):
        return False
    # the chain ends in gcd(f, f'), so f has deg f - deg gcd distinct roots;
    # by Sturm's theorem, the chain loses one sign change per distinct root
    # in (-inf, 0) (f(0) > 0 here, as every coefficient is positive)
    chain = sturm_sequence(f)
    at_minus_inf = [_lead(p) * (-1) ** _degree(p) for p in chain]
    negative = _sign_changes(at_minus_inf) - _sign_changes([p.terms.get((0,), 0) for p in chain])
    return negative == _degree(f) - _degree(chain[-1])
