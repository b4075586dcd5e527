"""Concrete presentations of semi-abelian saturated Fell bundles.

Fibers are stored source-trivialized: an element of the fiber over s is a
coefficient function on U_{s*s}.  The multiplication twists through the
action and a circle-valued cocycle,

    (a.b)(x) = a(theta_t(x)) b(x) w(s,t)(x),

and the involution transports through theta_s,

    a*(y) = conj(a(theta_s^{-1}(y))) conj(w(s*,s)(theta_s^{-1}(y))).

Both the hand-given twisted-action presentation and the
bissection-of-a-groupoid presentation reduce to this calculus; the axiom
validator is the safety net for arbitrary cocycle tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from germlab.germgpd import FiniteGroupoid, is_wide_family
from germlab.invsgp import InverseSemigroup
from germlab.spaces import (
    Action,
    DiscreteSet,
    DiscreteSpace,
    IntervalSpace,
    PartialHomeo,
    Piece,
    RationalSet,
    frac,
)

TOL = 1e-12


class FellBundleError(ValueError):
    pass


class CocycleNotNormalized(FellBundleError):
    def __init__(self, slot, value):
        super().__init__(f"cocycle not normalized at {slot}: {value}")
        self.witness = (slot, value)


class CocycleNotAssociative(FellBundleError):
    def __init__(self, r, s, t, x):
        super().__init__(f"cocycle identity fails at ({r},{s},{t}) over {x}")
        self.witness = (r, s, t, x)


class SpaceNotCovered(FellBundleError):
    def __init__(self, point):
        super().__init__(f"point {point!r} lies in no U_e; the space exceeds the spectrum")
        self.witness = (point,)


class SubsemigroupNotWide(FellBundleError):
    def __init__(self, reason):
        super().__init__(f"bissection family is not wide: {reason}")


class NotSemiAbelian(FellBundleError):
    pass


class NoSolution(FellBundleError):
    def __init__(self, x):
        super().__init__(f"no admissible target for theta at {x!r}; bundle data corrupt")
        self.witness = (x,)


class GluingConflict(FellBundleError):
    def __init__(self, x):
        super().__init__(f"theta_a gluing conflict over {x!r}")
        self.witness = (x,)


class NotSaturated(FellBundleError):
    def __init__(self, s, x):
        super().__init__(f"no basis element of the fiber over {s!r} is supported at {x!r}")
        self.witness = (s, x)


class FiberMismatch(FellBundleError):
    pass


# ---------------------------------------------------------------------------
# Exact piecewise complex-affine functions (interval model)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CAffine:
    """x |-> (ar x + br) + i (ai x + bi), exact rational coefficients."""

    ar: Fraction
    br: Fraction
    ai: Fraction = Fraction(0)
    bi: Fraction = Fraction(0)

    def eval_exact(self, x: Fraction) -> tuple[Fraction, Fraction]:
        x = frac(x)
        return (self.ar * x + self.br, self.ai * x + self.bi)

    def eval(self, x) -> complex:
        re, im = self.eval_exact(x)
        return complex(re, im)

    def add(self, other: "CAffine") -> "CAffine":
        return CAffine(self.ar + other.ar, self.br + other.br,
                       self.ai + other.ai, self.bi + other.bi)

    def scale(self, lam: complex) -> "CAffine":
        lr, li = Fraction(lam.real), Fraction(lam.imag)
        return CAffine(lr * self.ar - li * self.ai, lr * self.br - li * self.bi,
                       lr * self.ai + li * self.ar, lr * self.bi + li * self.br)

    def conj(self) -> "CAffine":
        return CAffine(self.ar, self.br, -self.ai, -self.bi)

    def compose_affine(self, alpha: Fraction, beta: Fraction) -> "CAffine":
        """The function x |-> f(alpha x + beta)."""
        return CAffine(self.ar * alpha, self.ar * beta + self.br,
                       self.ai * alpha, self.ai * beta + self.bi)

    def is_zero(self) -> bool:
        return self.ar == self.br == self.ai == self.bi == 0


@dataclass(frozen=True)
class IntervalFunction:
    """A piecewise complex-affine function, zero off its listed pieces."""

    pieces: tuple[tuple[Piece, CAffine], ...]

    def eval_exact(self, x) -> tuple[Fraction, Fraction]:
        x = frac(x)
        for piece, f in self.pieces:
            if x in piece:
                return f.eval_exact(x)
        return (Fraction(0), Fraction(0))

    def eval(self, x) -> complex:
        re, im = self.eval_exact(x)
        return complex(re, im)

    def support(self) -> RationalSet:
        return RationalSet(tuple(p for p, _ in self.pieces))

    def add(self, other: "IntervalFunction") -> "IntervalFunction":
        cuts = set()
        for p, _ in self.pieces + other.pieces:
            cuts.update((p.lo, p.hi))
        out = []
        for piece in _refine(self.support().union(other.support()), cuts):
            x = piece.sample_point()
            fa = _caffine_at(self, x)
            fb = _caffine_at(other, x)
            g = fa.add(fb)
            if not g.is_zero():
                out.append((piece, g))
        return IntervalFunction(tuple(out))

    def scale(self, lam: complex) -> "IntervalFunction":
        if lam == 0:
            return IntervalFunction(())
        return IntervalFunction(tuple((p, f.scale(lam)) for p, f in self.pieces))

    def conj_transport(self, m) -> "IntervalFunction":
        """y |-> conj(f(m(y))) for a piecewise-affine partial map m."""
        out = []
        for mp in m.pieces:
            for piece, f in self.pieces:
                overlap = RationalSet((mp.image(),)).intersect(RationalSet((piece,)))
                for img in overlap.pieces:
                    inv = mp.invert()
                    lo, hi = inv.apply(img.lo), inv.apply(img.hi)
                    if inv.alpha > 0:
                        back = Piece(lo, img.lo_closed, hi, img.hi_closed)
                    else:
                        back = Piece(hi, img.hi_closed, lo, img.lo_closed)
                    out.append((back, f.compose_affine(mp.alpha, mp.beta).conj()))
        return IntervalFunction(tuple(out))

    def nonzero_region(self) -> RationalSet:
        region = RationalSet(())
        for piece, f in self.pieces:
            if f.is_zero():
                continue
            holes = []
            if f.ar != 0:
                root = -f.br / f.ar
                if f.ai * root + f.bi == 0 and root in piece:
                    holes.append(root)
            elif f.ai != 0:
                root = -f.bi / f.ai
                if f.ar * root + f.br == 0 and root in piece:
                    holes.append(root)
            elif f.br == 0 and f.bi == 0:
                continue
            part = RationalSet((piece,))
            for h in holes:
                part = part.intersect(
                    RationalSet((Piece(h, True, h, True),)).complement_in(
                        IntervalSpace(((piece.lo, piece.hi),))
                    )
                )
            region = region.union(part)
        return region

    def sup_abs_sq(self) -> Fraction:
        """Exact sup of |f|^2 (quadratic convex per piece: max at endpoints)."""
        best = Fraction(0)
        for piece, f in self.pieces:
            for x in (piece.lo, piece.hi):
                re, im = f.eval_exact(x)
                best = max(best, re * re + im * im)
        return best


def _refine(region: RationalSet, cuts) -> list[Piece]:
    out = []
    for piece in region.pieces:
        local = sorted({c for c in cuts if piece.lo <= c <= piece.hi} | {piece.lo, piece.hi})
        for p in local:
            if p in piece:
                out.append(Piece(p, True, p, True))
        for p, q in zip(local, local[1:]):
            out.append(Piece(p, False, q, False))
    return out


def _caffine_at(f: IntervalFunction, x) -> CAffine:
    for piece, g in f.pieces:
        if x in piece:
            return g
    return CAffine(Fraction(0), Fraction(0))


def wedge(piece: Piece) -> IntervalFunction:
    """The canonical positive function on one piece: 1 on closed ends,
    sloping affinely to 0 at relatively open ends."""
    lo, hi = piece.lo, piece.hi
    if piece.is_degenerate() or (piece.lo_closed and piece.hi_closed):
        return IntervalFunction(((piece, CAffine(Fraction(0), Fraction(1))),))
    w = hi - lo
    if piece.lo_closed and not piece.hi_closed:
        return IntervalFunction(((piece, CAffine(Fraction(-1) / w, hi / w)),))
    if not piece.lo_closed and piece.hi_closed:
        return IntervalFunction(((piece, CAffine(Fraction(1) / w, -lo / w)),))
    mid = (lo + hi) / 2
    up = CAffine(Fraction(2) / w, Fraction(-2) * lo / w)
    down = CAffine(Fraction(-2) / w, Fraction(2) * hi / w)
    return IntervalFunction(
        (
            (Piece(lo, piece.lo_closed, mid, True), up),
            (Piece(mid, False, hi, piece.hi_closed), down),
        )
    )


def tent(piece: Piece, peak: Fraction) -> IntervalFunction:
    """A tent of height 1 peaked at an interior point of the piece."""
    peak = frac(peak)
    if piece.is_degenerate():
        return wedge(piece)
    lo, hi = piece.lo, piece.hi
    up = CAffine(Fraction(1) / (peak - lo), -lo / (peak - lo)) if peak > lo else None
    down = CAffine(Fraction(-1) / (hi - peak), hi / (hi - peak)) if peak < hi else None
    pieces = []
    if up is not None:
        pieces.append((Piece(lo, piece.lo_closed, peak, True), up))
    if down is not None:
        pieces.append((Piece(peak, False, hi, piece.hi_closed), down))
    return IntervalFunction(tuple(pieces))


# ---------------------------------------------------------------------------
# Cocycles
# ---------------------------------------------------------------------------


class Cocycle:
    """A table (s,t) -> circle value; values may be constants or per-point."""

    def __init__(self, entries: dict | None = None):
        self.entries = dict(entries or {})

    def __call__(self, s: str, t: str, x) -> complex:
        v = self.entries.get((s, t), 1.0)
        if isinstance(v, dict):
            return complex(v.get(x, 1.0))
        return complex(v)

    def is_trivial(self) -> bool:
        for v in self.entries.values():
            vals = v.values() if isinstance(v, dict) else [v]
            if any(abs(complex(w) - 1.0) > TOL for w in vals):
                return False
        return True


# ---------------------------------------------------------------------------
# Fiber elements
# ---------------------------------------------------------------------------


@dataclass
class FiberElement:
    """An element of the fiber over s, in source-trivialized coordinates."""

    s: str
    coeffs: dict | None = None  # discrete model: point -> complex
    func: IntervalFunction | None = None  # interval model, exact
    evaluate: object = None  # interval model, pointwise closure

    def value(self, x) -> complex:
        if self.coeffs is not None:
            return self.coeffs.get(x, 0j)
        if self.func is not None:
            return self.func.eval(x)
        return self.evaluate(x)


# ---------------------------------------------------------------------------
# The bundle
# ---------------------------------------------------------------------------


@dataclass
class TwistedActionPresentation:
    semigroup: InverseSemigroup
    action: Action
    omega: Cocycle | None = None
    grid_resolution: int = 101


@dataclass
class GroupoidPresentation:
    groupoid: FiniteGroupoid
    cocycle: dict  # (arrow, arrow) -> complex, normalized on unit slots
    family: tuple  # iterable of arrow subsets forming a wide inverse subsemigroup


@dataclass
class FellBundle:
    semigroup: InverseSemigroup
    action: Action
    omega: Cocycle
    presentation: str
    grid_resolution: int = 101
    fiber_basis_map: dict = field(default_factory=dict)
    groupoid_data: object = None  # (groupoid, sigma, label->arrowset) for round trips

    # -- structure ----------------------------------------------------------

    @property
    def space(self):
        return self.action.space

    @property
    def kind(self) -> str:
        return self.space.kind

    def fiber_domain(self, s: str):
        return self.action.domain_of(s)

    def grid_points(self) -> tuple[Fraction, ...]:
        pts = []
        n = max(self.grid_resolution, 2)
        for a, b in self.space.components:
            if a == b:
                pts.append(a)
                continue
            pts.extend(a + (b - a) * k / (n - 1) for k in range(n))
        return tuple(pts)

    def _sorted_points(self, u) -> list:
        if self.kind == "discrete":
            return [x for x in self.space.points if x in u]
        return [x for x in self.grid_points() if x in u]

    # -- bases ---------------------------------------------------------------

    def fiber_basis(self, s: str) -> list[FiberElement]:
        if s in self.fiber_basis_map:
            return self.fiber_basis_map[s]
        u = self.fiber_domain(s)
        if self.kind == "discrete":
            basis = [self.indicator(s, x) for x in self.space.points if x in u]
        else:
            basis = []
            for piece in u.pieces:
                basis.append(FiberElement(s, func=wedge(piece)))
                if not piece.is_degenerate():
                    basis.append(FiberElement(s, func=tent(piece, piece.sample_point())))
        self.fiber_basis_map[s] = basis
        return basis

    def indicator(self, s: str, x) -> FiberElement:
        if self.kind == "discrete":
            if x not in self.fiber_domain(s):
                raise FellBundleError(f"{x!r} not in U_(s*s) for s={s!r}")
            return FiberElement(s, coeffs={x: 1.0 + 0j})
        raise FellBundleError("indicator elements exist only in the discrete model")

    def bump(self, e: str, x) -> FiberElement:
        """A test function in the idempotent fiber over e with value 1 at x."""
        if self.kind == "discrete":
            return self.indicator(e, x)
        u = self.fiber_domain(e)
        x = frac(x)
        for piece in u.pieces:
            if x not in piece:
                continue
            if not piece.is_degenerate() and piece.lo < x < piece.hi:
                return FiberElement(e, func=tent(piece, x))
            w = wedge(piece)
            return FiberElement(e, func=w.scale(1.0 / w.eval(x)))
        raise FellBundleError(f"{x!r} not in U_{e}")

    def zero(self, s: str) -> FiberElement:
        if self.kind == "discrete":
            return FiberElement(s, coeffs={})
        return FiberElement(s, func=IntervalFunction(()))

    def fiber_dim(self, s: str) -> int:
        if self.kind != "discrete":
            raise FellBundleError("fiber dimension is finite only in the discrete model")
        return len(self._sorted_points(self.fiber_domain(s)))

    # -- linear structure -----------------------------------------------------

    def add(self, a: FiberElement, b: FiberElement) -> FiberElement:
        if a.s != b.s:
            raise FiberMismatch(f"cannot add fibers over {a.s!r} and {b.s!r}")
        if self.kind == "discrete":
            out = dict(a.coeffs)
            for x, v in b.coeffs.items():
                out[x] = out.get(x, 0j) + v
            return FiberElement(a.s, coeffs={x: v for x, v in out.items() if v != 0})
        if a.func is not None and b.func is not None:
            return FiberElement(a.s, func=a.func.add(b.func))
        return FiberElement(a.s, evaluate=lambda x, a=a, b=b: a.value(x) + b.value(x))

    def scale(self, lam: complex, a: FiberElement) -> FiberElement:
        if self.kind == "discrete":
            return FiberElement(a.s, coeffs={x: lam * v for x, v in a.coeffs.items()})
        if a.func is not None:
            return FiberElement(a.s, func=a.func.scale(lam))
        return FiberElement(a.s, evaluate=lambda x, a=a: lam * a.value(x))

    def sub(self, a: FiberElement, b: FiberElement) -> FiberElement:
        return self.add(a, self.scale(-1.0, b))

    # -- algebra ---------------------------------------------------------------

    def mul(self, a: FiberElement, b: FiberElement) -> FiberElement:
        S = self.semigroup
        st = S.mul(a.s, b.s)
        th_b = self.action.theta_of(b.s)
        u = self.fiber_domain(st)
        if self.kind == "discrete":
            out = {}
            for x in self.space.points:
                if x not in u:
                    continue
                v = a.value(th_b.apply(x)) * b.value(x) * self.omega(a.s, b.s, x)
                if v != 0:
                    out[x] = v
            return FiberElement(st, coeffs=out)

        def ev(x, a=a, b=b, s=a.s, t=b.s, th=th_b, u=u):
            x = frac(x)
            if x not in u:
                return 0j
            return a.value(th.apply(x)) * b.value(x) * self.omega(s, t, x)

        return FiberElement(st, evaluate=ev)

    def star(self, a: FiberElement) -> FiberElement:
        S = self.semigroup
        s = a.s
        sstar = S.star(s)
        th_inv = self.action.theta_of(s).invert()
        if self.kind == "discrete":
            out = {}
            for y in self.space.points:
                if y not in self.fiber_domain(sstar):
                    continue
                x = th_inv.apply(y)
                v = a.value(x).conjugate() * self.omega(sstar, s, x).conjugate()
                if v != 0:
                    out[y] = v
            return FiberElement(sstar, coeffs=out)
        if a.func is not None and self._omega_trivial_on(sstar, s):
            return FiberElement(sstar, func=a.func.conj_transport(th_inv))

        def ev(y, a=a, th_inv=th_inv, sstar=sstar, s=s):
            y = frac(y)
            if y not in th_inv.domain():
                return 0j
            x = th_inv.apply(y)
            return a.value(x).conjugate() * self.omega(sstar, s, x).conjugate()

        return FiberElement(sstar, evaluate=ev)

    def _omega_trivial_on(self, s, t) -> bool:
        v = self.omega.entries.get((s, t), 1.0)
        if isinstance(v, dict):
            return all(abs(complex(w) - 1.0) <= TOL for w in v.values())
        return abs(complex(v) - 1.0) <= TOL

    def incl(self, t: str, a: FiberElement) -> FiberElement:
        """j_{t,s}: extension by zero in source-trivialized coordinates."""
        if not self.semigroup.leq(a.s, t):
            raise FellBundleError(f"inclusion needs {a.s!r} <= {t!r}")
        return replace(a) if a.s == t else FiberElement(
            t, coeffs=a.coeffs, func=a.func, evaluate=a.evaluate
        )

    # -- metric -----------------------------------------------------------------

    def star_mul(self, a: FiberElement, b: FiberElement) -> FiberElement:
        return self.mul(self.star(a), b)

    def pair_value(self, a: FiberElement, c: FiberElement, x) -> complex:
        """(a* . c)(x) without materializing the product."""
        S = self.semigroup
        st = S.mul(S.star(a.s), c.s)
        if x not in self.fiber_domain(st):
            return 0j
        y = self.action.theta_of(c.s).apply(x)
        z = self.action.theta_of(a.s).invert().apply(y)
        sv = a.value(z).conjugate() * self.omega(S.star(a.s), a.s, z).conjugate()
        return sv * c.value(x) * self.omega(S.star(a.s), c.s, x)

    def value_aa(self, a: FiberElement, x) -> float:
        v = self.star_mul(a, a).value(x)
        return v.real

    def norm(self, a: FiberElement) -> float:
        aa = self.star_mul(a, a)
        pts = self._sorted_points(self.fiber_domain(self.semigroup.source(a.s)))
        if not pts:
            return 0.0
        return max(abs(aa.value(x)) for x in pts) ** 0.5

    def coords(self, a: FiberElement) -> np.ndarray:
        if self.kind != "discrete":
            raise FellBundleError("coordinates exist only in the discrete model")
        return np.array([a.value(x) for x in self.space.points], dtype=complex)

    def dom(self, a: FiberElement):
        """{x : (a*a)(x) > 0}."""
        if self.kind == "discrete":
            pts = [x for x in self.space.points if self.value_aa(a, x) > 0]
            return DiscreteSet(frozenset(pts))
        if a.func is None:
            raise FellBundleError("dom of a non-symbolic interval element")
        return a.func.nonzero_region().intersect(self.fiber_domain(a.s))

    # -- relations ----------------------------------------------------------------

    def eqx(self, a: FiberElement, a2: FiberElement, x) -> bool:
        """((a - a2)*(a - a2))(x) = 0."""
        if a.s != a2.s:
            raise FiberMismatch(f"eqx needs elements of one fiber, got {a.s!r}, {a2.s!r}")
        d = self.sub(a, a2)
        if self.kind == "discrete":
            return self.star_mul(d, d).value(x) == 0
        if d.func is not None:
            re, im = d.func.eval_exact(x)
            return re == 0 and im == 0
        return abs(self.star_mul(d, d).value(x)) <= TOL


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def _check_covering(action: Action):
    cover = action.unit_cover()
    space = action.space
    if space.kind == "discrete":
        missing = [x for x in space.points if x not in cover]
        if missing:
            raise SpaceNotCovered(missing[0])
        return
    rest = space.full_set().intersect(cover.complement_in(space))
    if not rest.is_empty():
        raise SpaceNotCovered(rest.pieces[0].sample_point())


def _check_twisted_cocycle(S: InverseSemigroup, action: Action, omega: Cocycle, bundle):
    idems = set(S.idempotents())
    for s in S.elements:
        for t in S.elements:
            st = S.mul(s, t)
            pts = bundle._sorted_points(action.domain_of(st))
            if s in idems or t in idems or t == S.star(s):
                for x in pts:
                    v = omega(s, t, x)
                    if abs(v - 1.0) > TOL:
                        raise CocycleNotNormalized((s, t, x), v)
            for x in pts:
                if abs(abs(omega(s, t, x)) - 1.0) > TOL:
                    raise CocycleNotNormalized((s, t, x), omega(s, t, x))
    for r in S.elements:
        for s in S.elements:
            for t in S.elements:
                rst = S.mul(S.mul(r, s), t)
                th_t = action.theta_of(t)
                for x in bundle._sorted_points(action.domain_of(rst)):
                    lhs = omega(r, s, th_t.apply(x)) * omega(S.mul(r, s), t, x)
                    rhs = omega(s, t, x) * omega(r, S.mul(s, t), x)
                    if abs(lhs - rhs) > TOL:
                        raise CocycleNotAssociative(r, s, t, x)


def build_bundle(presentation) -> FellBundle:
    """Build a concretely evaluable bundle from either presentation."""
    if isinstance(presentation, TwistedActionPresentation):
        action = presentation.action
        _check_covering(action)
        omega = presentation.omega or Cocycle()
        b = FellBundle(
            semigroup=presentation.semigroup,
            action=action,
            omega=omega,
            presentation="twisted_action",
            grid_resolution=presentation.grid_resolution,
        )
        _check_twisted_cocycle(presentation.semigroup, action, omega, b)
        return b
    if isinstance(presentation, GroupoidPresentation):
        return _build_from_groupoid(presentation)
    raise TypeError(f"unknown presentation {presentation!r}")


def _check_groupoid_cocycle(g: FiniteGroupoid, sigma: dict):
    def sg(a, b):
        return complex(sigma.get((a, b), 1.0))

    for a in g.arrows:
        for b in g.arrows:
            if (a, b) not in g.compose_table:
                continue
            if abs(abs(sg(a, b)) - 1.0) > TOL:
                raise CocycleNotNormalized((a, b), sg(a, b))
            if a in g.units and abs(sg(a, b) - 1.0) > TOL:
                raise CocycleNotNormalized((a, b), sg(a, b))
            if b in g.units and abs(sg(a, b) - 1.0) > TOL:
                raise CocycleNotNormalized((a, b), sg(a, b))
            for c in g.arrows:
                if (b, c) not in g.compose_table:
                    continue
                lhs = sg(a, b) * sg(g.compose_table[(a, b)], c)
                rhs = sg(b, c) * sg(a, g.compose_table[(b, c)])
                if abs(lhs - rhs) > TOL:
                    raise CocycleNotAssociative(a, b, c, None)


def _build_from_groupoid(p: GroupoidPresentation) -> FellBundle:
    from germlab.invsgp import validate_inverse_semigroup
    from germlab.spaces import DiscreteMap, validate_action

    g = p.groupoid
    _check_groupoid_cocycle(g, p.cocycle)

    members = sorted({frozenset(m) for m in p.family}, key=lambda m: tuple(sorted(m)))
    ok, reason = is_wide_family(g, [m for m in members if m])
    if not ok:
        raise SubsemigroupNotWide(reason)
    index = {m: f"b{i}" for i, m in enumerate(members)}
    for u in members:
        for v in members:
            if g.product_set(u, v) not in index:
                raise SubsemigroupNotWide(
                    f"family not closed under products: {sorted(u)} * {sorted(v)}"
                )
        if g.inverse_set(u) not in index:
            raise SubsemigroupNotWide(f"family not closed under inverses: {sorted(u)}")

    labels = [index[m] for m in members]
    table = [
        [index[g.product_set(u, v)] for v in members] for u in members
    ]
    zero = index.get(frozenset())
    S = validate_inverse_semigroup(labels, table, zero=zero)

    space = DiscreteSpace(tuple(g.units))
    src_inv = {}  # (label, source unit) -> arrow
    theta = {}
    for m in members:
        pairs = tuple(sorted((g.src[a], g.rng[a]) for a in m))
        theta[index[m]] = DiscreteMap(space, pairs)
        for a in m:
            src_inv[(index[m], g.src[a])] = a
    action = validate_action(S, space, theta)
    _check_covering(action)

    def sg(a, b):
        return complex(p.cocycle.get((a, b), 1.0))

    entries = {}
    for u in members:
        for v in members:
            uv = g.product_set(u, v)
            lu, lv = index[u], index[v]
            th_v = theta[lv]
            per_point = {}
            for x in sorted(action.domain_of(index[uv]).points):
                g2 = src_inv[(lv, x)]
                g1 = src_inv[(lu, th_v.apply(x))]
                per_point[x] = sg(g1, g2)
            if per_point:
                entries[(lu, lv)] = per_point
    omega = Cocycle(entries)

    b = FellBundle(
        semigroup=S,
        action=action,
        omega=omega,
        presentation="groupoid_line_bundle",
        groupoid_data=(g, dict(p.cocycle), {index[m]: m for m in members}, src_inv),
    )
    return b


# ---------------------------------------------------------------------------
# Axiom validation
# ---------------------------------------------------------------------------


@dataclass
class AxiomReport:
    ok: bool
    failures: list

    def first_witness(self):
        return self.failures[0] if self.failures else None


# Modulus bound on basis coefficients and cocycle values for the sparse
# scan.  The scan's products have degree at most 8 in these values, so
# below it none overflows, and a skipped product is an exact 0 on both
# sides rather than 0 * inf = nan.
SPARSE_VALUE_BOUND = 1e30


def _full_tuples(basis: dict):
    """Every basis pair and triple, in product order."""

    def pairs(s, t):
        return list(itertools.product(basis[s], basis[t]))

    def triples(r, s, t):
        return list(itertools.product(basis[r], basis[s], basis[t]))

    return pairs, triples


def _bounded(v) -> bool:
    try:
        return abs(complex(v)) <= SPARSE_VALUE_BOUND  # False for nan and inf
    except (TypeError, ValueError):
        return False


def _basis_points(b, basis: dict) -> dict | None:
    """s -> the support point of each basis element over s, or None when the
    sparse scan does not apply: the bundle is not a discrete ``FellBundle``
    with its own ``mul``, ``star``, norm and ``Cocycle``, a basis element is
    not a one-point ``FiberElement`` of its fiber, or a value is out of
    bounds."""
    if not isinstance(b, FellBundle) or b.kind != "discrete" or type(b.omega) is not Cocycle:
        return None
    if any(getattr(type(b), m) is not getattr(FellBundle, m)
           for m in ("mul", "star", "star_mul", "norm")):
        return None
    values = [v for e in b.omega.entries.values()
              for v in (e.values() if isinstance(e, dict) else (e,))]
    points = {}
    for s, elems in basis.items():
        u = b.fiber_domain(s)
        points[s] = []
        for a in elems:
            if (type(a) is not FiberElement or a.s != s or a.coeffs is None
                    or len(a.coeffs) != 1):
                return None
            ((x, v),) = a.coeffs.items()
            if x not in u:
                return None
            points[s].append(x)
            values.append(v)
    return points if all(_bounded(v) for v in values) else None


def _composable_tuples(b: FellBundle, basis: dict, points: dict):
    """The basis pairs and triples whose products can be non-zero, in
    product order.  With a over s at y and c over t at x, a.c is zero
    unless y = theta_t(x); so a triple (a, c, d) over (r, s, t) is kept
    when d sits at z, c at theta_t(z) and a at theta_s(theta_t(z))."""
    # t -> theta_t(x) -> the basis elements (c, x) over t at x
    pre = {}
    for t, elems in basis.items():
        th = b.action.theta_of(t)
        pre[t] = {}
        for c, x in zip(elems, points[t]):
            pre[t].setdefault(th.apply(x), []).append((c, x))

    def pairs(s, t):
        return [(a, c) for a, y in zip(basis[s], points[s]) for c, _ in pre[t].get(y, ())]

    def triples(r, s, t):
        return [
            (a, c, d)
            for a, x in zip(basis[r], points[r])
            for c, y in pre[s].get(x, ())
            for d, _ in pre[t].get(y, ())
        ]

    return pairs, triples


def validate_axioms(b: FellBundle, tol: float = 1e-9) -> AxiomReport:
    """Axiom scan over coordinate basis elements.

    Checks, for basis elements: submultiplicativity, associativity,
    anti-multiplicativity of *, the C*-identity, positivity of a*a,
    isometry of the inclusions, inclusion/multiplication compatibility and
    inclusion/involution compatibility. Returns a report carrying the first
    failing witness per axiom family (scan continues across families).

    On a discrete ``FellBundle`` whose basis elements are supported on one
    point each, the product families visit only the composable tuples
    (``_composable_tuples``): every other product is zero on both sides by
    the partial-action laws that ``validate_action`` checked.  The
    inclusion/multiplication family does so only when ``incl`` is
    ``FellBundle``'s own.  Every other bundle visits every basis tuple.
    """
    S = b.semigroup
    failures = []

    def close(u, v):
        return abs(u - v) <= tol * max(1.0, abs(u), abs(v))

    def elements_close(x, y, pts):
        return all(abs(x.value(p) - y.value(p)) <= tol for p in pts)

    basis = {s: b.fiber_basis(s) for s in S.elements}
    pairs, triples = _full_tuples(basis)
    incl_pairs = pairs
    points = _basis_points(b, basis)
    if points is not None:
        pairs, triples = _composable_tuples(b, basis, points)
        if type(b).incl is FellBundle.incl:
            incl_pairs = pairs

    for s, t in itertools.product(S.elements, repeat=2):
        tuples = pairs(s, t)
        if not tuples:
            continue
        pts = b._sorted_points(b.fiber_domain(S.star(S.mul(s, t))))
        for a, c in tuples:
            ab = b.mul(a, c)
            na, nc = b.norm(a), b.norm(c)
            if b.norm(ab) > na * nc + tol * max(1.0, na * nc):
                failures.append(("submultiplicative", (s, t)))
                break
            ba_star = b.mul(b.star(c), b.star(a))
            if not elements_close(b.star(ab), ba_star, pts):
                failures.append(("star_antimultiplicative", (s, t)))
                break
        else:
            continue
        break

    for r, s, t in itertools.product(S.elements, repeat=3):
        tuples = triples(r, s, t)
        if not tuples:
            continue
        pts = b._sorted_points(b.fiber_domain(S.mul(S.mul(r, s), t)))
        done = False
        for a, c, d in tuples:
            lhs = b.mul(b.mul(a, c), d)
            rhs = b.mul(a, b.mul(c, d))
            if not elements_close(lhs, rhs, pts):
                failures.append(("associative", (r, s, t)))
                done = True
                break
        if done:
            break

    for s in S.elements:
        for a in basis[s]:
            aa = b.star_mul(a, a)
            pts = b._sorted_points(b.fiber_domain(S.source(s)))
            if any(aa.value(x).real < -tol or abs(aa.value(x).imag) > tol for x in pts):
                failures.append(("positivity", (s,)))
                break
            if not close(b.norm(aa), b.norm(a) ** 2):
                failures.append(("cstar_identity", (s,)))
                break
            sa = b.star(b.star(a))
            if not elements_close(sa, a, b._sorted_points(b.fiber_domain(s))):
                failures.append(("star_involutive", (s,)))
                break
            if not close(b.norm(b.star(a)), b.norm(a)):
                failures.append(("star_isometric", (s,)))
                break

    up = {s: [t for t in S.elements if S.leq(s, t)] for s in S.elements}
    order_pairs = [(s, t) for s in S.elements for t in up[s] if s != t]
    for s, t in order_pairs:
        for a in basis[s]:
            ja = b.incl(t, a)
            if not close(b.norm(ja), b.norm(a)):
                failures.append(("inclusion_isometric", (s, t)))
                break
            jstar = b.star(ja)
            starj = b.incl(S.star(t), b.star(a))
            if not elements_close(jstar, starj, b._sorted_points(b.fiber_domain(S.star(t)))):
                failures.append(("inclusion_star", (s, t)))
                break
    for (s, t), (u, v) in itertools.product(order_pairs, repeat=2):
        tuples = incl_pairs(s, u)
        if not tuples:
            continue
        pts = b._sorted_points(b.fiber_domain(S.mul(t, v)))
        done = False
        for a, c in tuples:
            lhs = b.mul(b.incl(t, a), b.incl(v, c))
            rhs = b.incl(S.mul(t, v), b.mul(a, c))
            if not elements_close(lhs, rhs, pts):
                failures.append(("inclusion_multiplicative", (s, t, u, v)))
                done = True
                break
        if done:
            break
    # transitivity j_{t,r} = j_{t,s} j_{s,r}
    for r in S.elements:
        for s in up[r]:
            for t in up[s]:
                for a in basis[r]:
                    lhs = b.incl(t, a)
                    rhs = b.incl(t, b.incl(s, a))
                    if not elements_close(lhs, rhs, b._sorted_points(b.fiber_domain(t))):
                        failures.append(("inclusion_transitive", (r, s, t)))

    return AxiomReport(ok=not failures, failures=failures)


def is_semi_abelian(b: FellBundle, tol: float = TOL) -> bool:
    """ab = ba for all basis elements over idempotents (the finite-scale
    criterion for commutativity of the restriction to E(S))."""
    S = b.semigroup
    for e, f in itertools.product(S.idempotents(), repeat=2):
        pts = b._sorted_points(b.fiber_domain(S.mul(e, f)))
        for a in b.fiber_basis(e):
            for c in b.fiber_basis(f):
                ab, ba = b.mul(a, c), b.mul(c, a)
                if any(abs(ab.value(x) - ba.value(x)) > tol for x in pts):
                    return False
    return True


def is_saturated(b: FellBundle, tol: float = 1e-9) -> bool:
    """span{A_s A_t} = A_{st} for all pairs (rank check in coordinates for
    the discrete model; support-covering shadow for the interval model)."""
    S = b.semigroup
    if b.kind == "discrete":
        for s, t in itertools.product(S.elements, repeat=2):
            st = S.mul(s, t)
            target = [b.coords(v) for v in b.fiber_basis(st)]
            prods = [
                b.coords(b.mul(a, c))
                for a in b.fiber_basis(s)
                for c in b.fiber_basis(t)
            ]
            r_target = np.linalg.matrix_rank(np.array(target), tol) if target else 0
            r_prod = np.linalg.matrix_rank(np.array(prods), tol) if prods else 0
            r_both = (
                np.linalg.matrix_rank(np.array(target + prods), tol)
                if target + prods
                else 0
            )
            if r_prod != r_target or r_both != r_target:
                return False
        return True
    for s, t in itertools.product(S.elements, repeat=2):
        st = S.mul(s, t)
        covered = RationalSet(())
        for a in b.fiber_basis(s):
            for c in b.fiber_basis(t):
                # support shadow: where both factors are nonzero
                th = b.action.theta_of(t)
                fa = b.dom(a)
                fb = b.dom(c)
                pull = th.invert().restrict(th.range().intersect(fa)).range()
                covered = covered.union(pull.intersect(fb))
        if not b.fiber_domain(st).issubset(covered):
            return False
    return True


# ---------------------------------------------------------------------------
# The canonical action extracted from the bundle
# ---------------------------------------------------------------------------


def theta_from_element(b: FellBundle, a: FiberElement) -> PartialHomeo:
    """The unique partial homeomorphism with (a*ba)(x) = (a*a)(x) b(theta(x)).

    Discrete model: solved by brute force against indicator test functions.
    Interval model: the identity is verified cellwise with tent test
    functions against the action's map, whose restriction is returned.
    """
    if not is_semi_abelian(b):
        raise NotSemiAbelian("theta extraction needs a semi-abelian bundle")
    S = b.semigroup
    s = a.s
    if b.kind == "discrete":
        dom_pts = [x for x in b.space.points if b.value_aa(a, x) > TOL]
        covered = [
            y
            for y in b.space.points
            if any(y in b.fiber_domain(e) for e in S.idempotents())
        ]
        pairs = []
        astar = b.star(a)
        for x in dom_pts:
            aa_x = b.value_aa(a, x)
            target = None
            for y in covered:
                e = next(e for e in S.idempotents() if y in b.fiber_domain(e))
                test = b.indicator(e, y)
                v = b.mul(b.mul(astar, test), a).value(x)
                if abs(v) > TOL * max(1.0, aa_x):
                    if abs(v - aa_x) > 1e-9 * max(1.0, aa_x) or target is not None:
                        raise NoSolution(x)
                    target = y
            if target is None:
                raise NoSolution(x)
            pairs.append((x, target))
        from germlab.spaces import DiscreteMap

        return DiscreteMap(b.space, tuple(pairs))

    dom = b.dom(a)
    th = b.action.theta_of(s).restrict(dom)
    astar = b.star(a)
    for piece in dom.pieces:
        x = piece.sample_point()
        aa_x = b.value_aa(a, x)
        y = th.apply(x)
        test = b.bump(_covering_idempotent(b, y), y)
        v = b.mul(b.mul(astar, test), a).value(x)
        if abs(v - aa_x * test.value(y)) > 1e-9 * max(1.0, aa_x):
            raise NoSolution(x)
    return th


def _covering_idempotent(b: FellBundle, y) -> str:
    for e in b.semigroup.idempotents():
        if y in b.fiber_domain(e):
            return e
    raise SpaceNotCovered(y)


def theta_s(b: FellBundle, s: str) -> PartialHomeo:
    """Glue theta_a over the basis of the fiber; saturation makes it total."""
    S = b.semigroup
    u = b.fiber_domain(s)
    if b.kind == "discrete":
        pairs = {}
        for a in b.fiber_basis(s):
            th_a = theta_from_element(b, a)
            for x, y in th_a.pairs:
                if pairs.get(x, y) != y:
                    raise GluingConflict(x)
                pairs[x] = y
        missing = [x for x in b.space.points if x in u and x not in pairs]
        if missing:
            raise NotSaturated(s, missing[0])
        from germlab.spaces import DiscreteMap

        return DiscreteMap(b.space, tuple(sorted(pairs.items())))
    covered = RationalSet(())
    glued = None
    for a in b.fiber_basis(s):
        th_a = theta_from_element(b, a)
        covered = covered.union(th_a.domain())
        glued = th_a if glued is None else _merge_affine(glued, th_a)
    if not u.issubset(covered):
        rest = u.intersect(covered.complement_in(b.space))
        raise NotSaturated(s, rest.pieces[0].sample_point())
    full = b.action.theta_of(s)
    from germlab.spaces import find_difference_point

    w = find_difference_point(glued.restrict(covered), full.restrict(covered))
    if w is not None:
        raise GluingConflict(w)
    return full


def _merge_affine(f, g):
    """Union of two compatible piecewise-affine partial maps."""
    from germlab.spaces import PiecewiseAffineMap, find_difference_point

    common = f.domain().intersect(g.domain())
    if not common.is_empty():
        w = find_difference_point(f.restrict(common), g.restrict(common))
        if w is not None:
            raise GluingConflict(w)
    remaining = g.restrict(g.domain().intersect(common.complement_in(f.space)))
    return PiecewiseAffineMap(f.space, f.pieces + remaining.pieces)


def eqx(b: FellBundle, a: FiberElement, a2: FiberElement, x) -> bool:
    """a and a2 agree at x in the sense ((a-a2)*(a-a2))(x) = 0."""
    return b.eqx(a, a2, x)
