"""Catalytic functional equations for interval enumeration, solved as exact
truncated power series in t.

The unknowns are two series: ``intervals`` refines the count of all
lattice intervals at each order of t, and ``indecomposable`` the count of
intervals whose lower tree is indecomposable.  Splitting the lower tree at
its left border links the two: every interval factors over an indecomposable
bottom part, which yields

    intervals = indecomposable + ybar * intervals(v,v) * indecomposable / v

while the indecomposable series satisfies an equation whose right side
carries an explicit factor t, with catalytic divided differences in u.  The
recursion therefore determines order k of both series from order k-1 of
``intervals``, starting from zero.

Five systems are available:

- ``full``: universe (u, v, x, y, ybar); the cover statistics x, y, ybar of
  the four-variable interval enumerator (xbar is not tracked by any known
  catalytic system).
- ``q``: the full system with each interval additionally weighted by
  q^(longest chain length).
- ``canopy``: universe (u, LL, RR) weighting the interval canopy word; it
  must agree with the full system under x = 1, v = u, y = LL, ybar = RR.
- ``sync``: one catalytic variable; counts synchronous intervals only.
- ``bicubic``: counts intervals whose (x, y, ybar) degree is exactly n - 1.

The two restricted solutions eliminate to plain algebraic equations; their
integer coefficient arrays are exported so the eliminations can be verified
as vanishing residuals.
"""

from dataclasses import dataclass
from enum import Enum

from .polynomial import MultiPoly, SeriesT, cauchy_coefficient, divided_difference


class Mode(str, Enum):
    FULL = "full"
    Q_ANALOGUE = "q"
    CANOPY = "canopy"
    SYNCHRONOUS_RESTRICTED = "sync"
    BICUBIC_RESTRICTED = "bicubic"


MODE_UNIVERSES = {
    Mode.FULL: ("u", "v", "x", "y", "ybar"),
    Mode.Q_ANALOGUE: ("q", "u", "v", "x", "y", "ybar"),
    Mode.CANOPY: ("u", "LL", "RR"),
    Mode.SYNCHRONOUS_RESTRICTED: ("u",),
    Mode.BICUBIC_RESTRICTED: ("u", "v"),
}

MODE_CATALYTIC = {
    Mode.FULL: ("u", "v"),
    Mode.Q_ANALOGUE: ("u", "v"),
    Mode.CANOPY: ("u",),
    Mode.SYNCHRONOUS_RESTRICTED: ("u",),
    Mode.BICUBIC_RESTRICTED: ("u", "v"),
}

# elimination of the sync unknown F = intervals(1):
#   t^2 F^3 + (6 t^2 + 2 t) F^2 + (12 t^2 - 10 t + 1) F + (8 t^2 - t) = 0
# coefficient arrays are in t, low order first, indexed by the power of F
SYNC_RESIDUAL_COEFFS = ((0, -1, 8), (1, -10, 12), (0, 2, 6), (0, 0, 1))

# elimination of the bicubic unknown:
#   16 t^2 F^2 + (24 t^2 - 12 t + 1) F + (9 t^2 - t) = 0
BICUBIC_RESIDUAL_COEFFS = ((0, -1, 9), (1, -12, 24), (0, 0, 16))


@dataclass(frozen=True)
class SystemConfig:
    """Choice of equation system and exclusive truncation order of t."""

    mode: Mode
    N: int = 9

    def __post_init__(self):
        object.__setattr__(self, "mode", Mode(self.mode))
        if isinstance(self.N, bool) or not isinstance(self.N, int) or self.N < 1:
            raise ValueError(f"truncation order must be a positive integer, got {self.N!r}")

    @property
    def universe(self):
        return MODE_UNIVERSES[self.mode]

    @property
    def catalytic(self):
        return MODE_CATALYTIC[self.mode]

    @property
    def weight_vars(self):
        return tuple(v for v in self.universe if v not in self.catalytic)


@dataclass(frozen=True)
class SolverOutput:
    """Both unknown series of a solved system, catalytic variables included."""

    config: SystemConfig
    intervals: SeriesT
    indecomposable: SeriesT

    def _at_unit(self, series):
        bindings = {name: 1 for name in self.config.catalytic}
        return series.substitute(bindings, self.config.weight_vars)

    def intervals_at_unit(self):
        """The interval series with every catalytic variable set to 1."""
        return self._at_unit(self.intervals)

    def indecomposable_at_unit(self):
        return self._at_unit(self.indecomposable)


def solve(config):
    """Iterate the chosen system to its truncation order.

    Order k of the right-hand sides only consumes order k-1 of the interval
    series, so a single forward pass fills both unknowns exactly.  The five
    systems share this loop and differ only in the split variable (the last
    catalytic one: v for full, q and bicubic; u for canopy and sync), the
    bridge weight (ybar for full and q; RR for canopy; 1 otherwise) and the
    ``inner`` kernel.  The q kernel is the full kernel under u -> qu, divided
    by q.
    """
    if not isinstance(config, SystemConfig):
        raise TypeError(f"expected a SystemConfig, got {type(config).__name__}")
    mode = config.mode
    names = config.universe
    N = config.N
    split = config.catalytic[-1]
    zero = MultiPoly.zero(names)
    u = MultiPoly.variable(names, "u")
    split_var = MultiPoly.variable(names, split)
    weight = 1
    if mode in (Mode.FULL, Mode.Q_ANALOGUE):
        x = MultiPoly.variable(names, "x")
        y = MultiPoly.variable(names, "y")
        weight = MultiPoly.variable(names, "ybar")
        if mode is Mode.Q_ANALOGUE:
            qu = MultiPoly.monomial(names, {"q": 1, "u": 1})
    elif mode is Mode.CANOPY:
        ll = MultiPoly.variable(names, "LL")
        weight = MultiPoly.variable(names, "RR")
    phi = [zero] * N
    theta = [zero] * N
    bridge = [zero] * N
    for k in range(1, N):
        prev = phi[k - 1]
        if split == "v":
            p_u1 = prev.substitute({"v": 1})
            p_uu = prev.substitute({"v": u})
        else:
            p_u1 = p_uu = prev
        dd1 = divided_difference(p_u1, p_u1.substitute({"u": 1}), "u")
        if mode in (Mode.FULL, Mode.Q_ANALOGUE):
            dd2 = divided_difference(p_uu, p_u1, "u")
            inner = y * (u * dd1) + x * y * (u * dd2) + (x - x * y) * p_uu
            if mode is Mode.Q_ANALOGUE:
                inner = inner.substitute({"u": qu}).exact_div("q")
        elif mode is Mode.CANOPY:
            inner = ll * (u * dd1) + (1 - ll) * p_uu
        elif mode is Mode.SYNCHRONOUS_RESTRICTED:
            inner = u * dd1 - p_uu
        else:  # bicubic restriction: x, y, ybar pinned to 1
            inner = u * dd1 + p_uu
        if k == 1:
            inner = inner + u
        theta[k] = split_var * inner
        # bridge[0] and the unfilled bridge[k] are zero: this sums over 0 < i < k
        conv = cauchy_coefficient(bridge, theta, k)
        phi[k] = theta[k] + weight * conv.exact_div(split)
        bridge[k] = phi[k].substitute({"u": split_var}) if split == "v" else phi[k]
    return SolverOutput(config, SeriesT(names, N, phi), SeriesT(names, N, theta))


def check_alternative_decomposition(output):
    """Splitting at the other end: the interval series also satisfies
    intervals = indec + ybar * indec(v,v) * intervals / v.  True when the
    solved series fits that variant at every computed order."""
    if not isinstance(output, SolverOutput):
        raise TypeError(f"expected a SolverOutput, got {type(output).__name__}")
    if output.config.mode is not Mode.FULL:
        raise ValueError("the alternative decomposition is stated for the full system")
    names = output.config.universe
    v = MultiPoly.variable(names, "v")
    ybar = MultiPoly.variable(names, "ybar")
    product = output.indecomposable.substitute({"u": v}) * output.intervals
    return all(theta + ybar * conv.exact_div("v") == phi
               for theta, conv, phi in zip(output.indecomposable.coeffs, product.coeffs,
                                           output.intervals.coeffs))


def check_bridge_identity(output):
    """Compatibility of the three one-variable specializations:
    (u + ybar*intervals(u,u)) * intervals(u,1)
        = intervals(u,u) * (1 + ybar*intervals(1,1))."""
    if not isinstance(output, SolverOutput):
        raise TypeError(f"expected a SolverOutput, got {type(output).__name__}")
    if output.config.mode is not Mode.FULL:
        raise ValueError("the bridge identity is stated for the full system")
    names = output.config.universe
    N = output.config.N
    u = MultiPoly.variable(names, "u")
    ybar = MultiPoly.variable(names, "ybar")
    phi = output.intervals
    phi_uu = phi.substitute({"v": u})
    phi_u1 = phi.substitute({"v": 1})
    phi_11 = phi_u1.substitute({"u": 1})
    lhs_factor = SeriesT(names, N, [u + ybar * phi_uu.coeffs[0]]
                         + [ybar * c for c in phi_uu.coeffs[1:]])
    rhs_factor = SeriesT(names, N, [1 + ybar * phi_11.coeffs[0]]
                         + [ybar * c for c in phi_11.coeffs[1:]])
    return lhs_factor * phi_u1 == phi_uu * rhs_factor


def residual(series, coefficient_arrays):
    """Plug a series F into sum_j c_j(t) F^j and return the truncated result.

    ``coefficient_arrays[j]`` lists the integer coefficients of c_j(t) from
    t^0 upward.  A vanishing residual certifies the series solves the
    algebraic equation up to the truncation order.
    """
    if not isinstance(series, SeriesT):
        raise TypeError(f"expected a SeriesT, got {type(series).__name__}")
    names, N = series.vars, series.N
    acc = SeriesT.zero(names, N)
    power = SeriesT(names, N, [MultiPoly.one(names)] + [MultiPoly.zero(names)] * (N - 1))
    for coeffs in coefficient_arrays:
        padded = (list(coeffs) + [0] * N)[:N]
        acc = acc + power * SeriesT(names, N, [MultiPoly.constant(names, c) for c in padded])
        power = power * series
    return acc
