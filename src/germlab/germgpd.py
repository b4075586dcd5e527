"""Groupoids of germs of inverse-semigroup actions.

A germ class is stored by its canonical representative: the first element (in
input order) among all legs giving the same germ.  The discrete model carries
complete finite tables; the interval model carries a cellwise family with
pointwise operations, all cell boundaries computed in exact rational
arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from germlab.invsgp import NoZeroElement, is_continuous
from germlab.spaces import (
    Action,
    DiscreteSet,
    Piece,
    RationalSet,
    frac,
)


@dataclass(frozen=True)
class Germ:
    """A germ [s, x] stored by canonical representative."""

    s: str
    x: object

    def __repr__(self):
        return f"[{self.s},{self.x}]"


@dataclass(frozen=True)
class BasicOpen:
    """O(s, U) = {[s, x] : x in U}."""

    s: str
    u: object  # DiscreteSet or RationalSet


def germ_equal(action: Action, s: str, x, t, y) -> bool:
    """[s,x] = [t,y] iff x = y and some idempotent e has x in U_e, se = te."""
    if x != y:
        return False
    S = action.semigroup
    for e in S.idempotents():
        if S.mul(s, e) == S.mul(t, e) and x in action.theta_of(e).domain():
            return True
    return False


def canonical_rep(action: Action, s: str, x) -> str:
    S = action.semigroup
    for t in S.elements:
        if x in action.domain_of(t) and germ_equal(action, t, x, s, x):
            return t
    return s


def _equality_region(action: Action, s: str, t: str):
    """The set of x where the germs of s and t exist and coincide."""
    S = action.semigroup
    region = action.space.empty_set()
    for e in S.idempotents():
        if S.mul(s, e) == S.mul(t, e):
            region = region.union(action.theta_of(e).domain())
    return region.intersect(action.domain_of(s)).intersect(action.domain_of(t))


# ---------------------------------------------------------------------------
# Discrete model
# ---------------------------------------------------------------------------


@dataclass
class DiscreteGermGroupoid:
    action: Action
    germs: tuple[Germ, ...]
    source_map: dict
    range_map: dict
    compose_map: dict
    inv_map: dict
    units: frozenset
    _class_of: dict = field(repr=False, default_factory=dict)

    kind = "discrete"

    def germ(self, s: str, x) -> Germ:
        return self._class_of[(s, x)]

    def source(self, g: Germ):
        return self.source_map[g]

    def range(self, g: Germ):
        return self.range_map[g]

    def compose(self, g1: Germ, g2: Germ) -> Germ:
        return self.compose_map[(g1, g2)]

    def composable(self, g1: Germ, g2: Germ) -> bool:
        return (g1, g2) in self.compose_map

    def inv(self, g: Germ) -> Germ:
        return self.inv_map[g]

    def unit_of(self, x) -> Germ:
        S = self.action.semigroup
        for e in S.idempotents():
            if x in self.action.theta_of(e).domain():
                return self.germ(e, x)
        raise KeyError(f"point {x!r} lies in no U_e")

    def germs_with_source(self, x) -> tuple[Germ, ...]:
        return tuple(g for g in self.germs if self.source_map[g] == x)

    def is_empty(self) -> bool:
        return not self.germs


def _build_discrete(action: Action) -> DiscreteGermGroupoid:
    S = action.semigroup
    space = action.space
    class_of: dict = {}
    germs: list[Germ] = []
    for s in S.elements:
        dom = action.domain_of(s)
        for x in space.points:
            if x not in dom:
                continue
            rep = canonical_rep(action, s, x)
            g = Germ(rep, x)
            class_of[(s, x)] = g
            if (rep, x) == (s, x):
                germs.append(g)
    source_map = {g: g.x for g in germs}
    range_map = {g: action.theta_of(g.s).apply(g.x) for g in germs}
    inv_map = {}
    for g in germs:
        inv_map[g] = class_of[(S.star(g.s), range_map[g])]
    compose_map = {}
    for g1 in germs:
        for g2 in germs:
            if source_map[g1] != range_map[g2]:
                continue
            st = S.mul(g1.s, g2.s)
            compose_map[(g1, g2)] = class_of[(st, g2.x)]
    units = frozenset(
        g
        for g in germs
        if any(
            S.leq(e, g.s) and g.x in action.theta_of(e).domain()
            for e in S.idempotents()
        )
    )
    return DiscreteGermGroupoid(
        action=action,
        germs=tuple(germs),
        source_map=source_map,
        range_map=range_map,
        compose_map=compose_map,
        inv_map=inv_map,
        units=units,
        _class_of=class_of,
    )


# ---------------------------------------------------------------------------
# Interval model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GermCell:
    """A maximal cell of germs [s, x], x in the piece, with constant pattern."""

    s: str
    piece: Piece

    def sample(self) -> Fraction:
        return self.piece.sample_point()


class CellRefinementError(RuntimeError):
    pass


def _stable_breakpoints(action: Action, max_rounds: int = 64) -> list[Fraction]:
    """Breakpoints of all U_e, equality regions and map pieces, closed under
    the action maps so that every theta maps cells onto cells."""
    S = action.semigroup
    pts: set[Fraction] = set()
    for a, b in action.space.components:
        pts.update((a, b))
    sets = [action.domain_of(s) for s in S.elements]
    sets += [action.theta_of(s).range() for s in S.elements]
    for s, t in itertools.combinations(S.elements, 2):
        sets.append(_equality_region(action, s, t))
    for u in sets:
        pts.update(u.endpoints())
    for s in S.elements:
        for p in action.theta_of(s).pieces:
            pts.update((p.domain.lo, p.domain.hi))
    for _ in range(max_rounds):
        new = set(pts)
        for s in S.elements:
            th = action.theta_of(s)
            dom, rng = th.domain(), th.range()
            for x in pts:
                if x in dom:
                    new.add(th.apply(x))
                if x in rng:
                    new.add(th.invert().apply(x))
        if new == pts:
            return sorted(pts)
        pts = new
    raise CellRefinementError("cell partition does not stabilize under the action")


def _atomic_cells(action: Action) -> list[Piece]:
    bps = _stable_breakpoints(action)
    cells: list[Piece] = []
    for a, b in action.space.components:
        local = sorted(p for p in bps if a <= p <= b)
        for i, p in enumerate(local):
            cells.append(Piece(p, True, p, True))
            if i + 1 < len(local):
                cells.append(Piece(p, False, local[i + 1], False))
    return cells


@dataclass
class IntervalGermGroupoid:
    action: Action
    cells: tuple[GermCell, ...]  # maximal, one entry per germ-class cell
    atomic_cells: tuple[Piece, ...]

    kind = "interval"

    def germ(self, s: str, x) -> Germ:
        x = frac(x)
        if x not in self.action.domain_of(s):
            raise KeyError(f"{x} not in U_({s})*({s})")
        return Germ(canonical_rep(self.action, s, x), x)

    def source(self, g: Germ):
        return g.x

    def range(self, g: Germ):
        return self.action.theta_of(g.s).apply(g.x)

    def composable(self, g1: Germ, g2: Germ) -> bool:
        return self.source(g1) == self.range(g2)

    def compose(self, g1: Germ, g2: Germ) -> Germ:
        if not self.composable(g1, g2):
            raise KeyError("germs not composable")
        S = self.action.semigroup
        return self.germ(S.mul(g1.s, g2.s), g2.x)

    def inv(self, g: Germ) -> Germ:
        S = self.action.semigroup
        return self.germ(S.star(g.s), self.range(g))

    def unit_of(self, x) -> Germ:
        S = self.action.semigroup
        for e in S.idempotents():
            if frac(x) in self.action.theta_of(e).domain():
                return self.germ(e, x)
        raise KeyError(f"point {x!r} lies in no U_e")

    def is_unit(self, g: Germ) -> bool:
        S = self.action.semigroup
        return any(
            S.leq(e, g.s) and g.x in self.action.theta_of(e).domain()
            for e in S.idempotents()
        )

    def is_empty(self) -> bool:
        return not self.cells


def _build_interval(action: Action) -> IntervalGermGroupoid:
    S = action.semigroup
    atomic = _atomic_cells(action)
    pairs = list(itertools.combinations(S.elements, 2))
    eq_regions = {(s, t): _equality_region(action, s, t) for s, t in pairs}
    domains = {s: action.domain_of(s) for s in S.elements}

    def pattern(cell: Piece):
        x = cell.sample_point()
        in_dom = tuple(x in domains[s] for s in S.elements)
        eq = tuple(x in eq_regions[p] for p in pairs)
        return in_dom + eq

    raw: list[GermCell] = []
    for s in S.elements:
        run: list[Piece] = []
        run_pat = None
        for cell in atomic:
            x = cell.sample_point()
            ok = x in domains[s] and canonical_rep(action, s, x) == s
            pat = pattern(cell) if ok else None
            if ok and run and run_pat == pat and (
                cell.lo < run[-1].hi
                or (cell.lo == run[-1].hi and (run[-1].hi_closed or cell.lo_closed))
            ):
                run.append(cell)
                continue
            if run:
                merged = RationalSet(tuple(run)).pieces
                raw.extend(GermCell(s, p) for p in merged)
            run = [cell] if ok else []
            run_pat = pat
        if run:
            merged = RationalSet(tuple(run)).pieces
            raw.extend(GermCell(s, p) for p in merged)
    return IntervalGermGroupoid(action=action, cells=tuple(raw), atomic_cells=tuple(atomic))


def build_germ_groupoid(act: Action):
    if act.space.kind == "discrete":
        return _build_discrete(act)
    return _build_interval(act)


# ---------------------------------------------------------------------------
# Hausdorffness
# ---------------------------------------------------------------------------


def is_hausdorff(g) -> tuple[bool, tuple]:
    """Exact separation decision.

    Distinct germs [s,x], [t,x] cannot be separated exactly when x lies in the
    closure of the region where the two germs coincide.  Returns
    (verdict, witnesses); each witness is a pair of canonical germs.
    """
    action = g.action
    S = action.semigroup
    witnesses = []
    for s, t in itertools.combinations(S.elements, 2):
        region = _equality_region(action, s, t)
        both = action.domain_of(s).intersect(action.domain_of(t))
        for x in _closure_minus(region, action.space):
            if x in both and not germ_equal(action, s, x, t, x):
                g1 = Germ(canonical_rep(action, s, x), x)
                g2 = Germ(canonical_rep(action, t, x), x)
                if (g1, g2) not in witnesses:
                    witnesses.append((g1, g2))
    return (not witnesses), tuple(witnesses)


def _closure_minus(region, space):
    """Points of closure(region) \\ region."""
    if isinstance(region, DiscreteSet):
        return ()
    return region.boundary_points(space)


# ---------------------------------------------------------------------------
# Bissections O_s and wideness
# ---------------------------------------------------------------------------


class BissectionIdentityError(AssertionError):
    pass


def bissection_Os(g, s: str) -> BasicOpen:
    """O_s with the identities O_s O_t = O_{st} and O_s^{-1} = O_{s*} verified."""
    action = g.action
    S = action.semigroup
    for t in S.elements:
        # germ-set product: domain of the composite equals U_{(st)*(st)}
        th_t = action.theta_of(t)
        composite_dom = th_t.invert().restrict(
            th_t.range().intersect(action.domain_of(s))
        ).range()
        expected = action.domain_of(S.mul(s, t))
        if composite_dom != expected:
            raise BissectionIdentityError(f"O_{s} O_{t} != O_{s}{t}")
        if g.kind == "discrete":
            prod = set()
            for x in _points(composite_dom):
                prod.add(g.germ(S.mul(s, t), x))
            direct = {g.germ(S.mul(s, t), x) for x in _points(expected)}
            if prod != direct:
                raise BissectionIdentityError(f"O_{s} O_{t} != O_{s}{t}")
    if action.theta_of(s).range() != action.domain_of(S.star(s)):
        raise BissectionIdentityError(f"O_{s}^-1 != O_{S.star(s)}")
    return BasicOpen(s, action.domain_of(s))


def _points(u):
    if isinstance(u, DiscreteSet):
        return sorted(u.points)
    return u.sample_points()


class NotABissection(ValueError):
    def __init__(self, member, witness):
        super().__init__(f"not a bissection: {member!r}, witness {witness}")
        self.witness = witness


def is_wide(g, t_family) -> tuple[bool, str | None]:
    """Covering + interpolation for a family of BasicOpen bissections.

    Returns (verdict, explanation); the explanation names the failing germ.
    """
    action = g.action
    S = action.semigroup
    family = list(t_family)
    for m in family:
        if not isinstance(m, BasicOpen):
            raise TypeError("family members must be BasicOpen instances")
        if not m.u.issubset(action.domain_of(m.s)):
            raise NotABissection(m, "u not contained in U_{s*s}")

    def eq_region(a: str, b: str):
        if a == b:
            return action.domain_of(a)
        return _equality_region(action, a, b)

    # covering: every germ [s, x] lies in some member
    for s in S.elements:
        covered = action.space.empty_set()
        for m in family:
            covered = covered.union(m.u.intersect(eq_region(s, m.s)))
        dom = action.domain_of(s)
        if not dom.issubset(covered):
            missing = _first_point(dom, covered, action.space)
            return False, f"covering fails at germ [{s},{missing}]"

    # interpolation: through every germ of O(t,V) & O(r,W) passes a member
    # entirely contained in the intersection
    for (m1, m2) in itertools.product(family, repeat=2):
        meet = m1.u.intersect(m2.u).intersect(eq_region(m1.s, m2.s))
        if meet.is_empty():
            continue
        for x in _region_atoms(g, meet):
            ok = False
            for m in family:
                inside = (
                    m.u.issubset(m1.u.intersect(eq_region(m.s, m1.s)))
                    and m.u.issubset(m2.u.intersect(eq_region(m.s, m2.s)))
                )
                if inside and x in m.u.intersect(eq_region(m.s, m1.s)):
                    ok = True
                    break
            if not ok:
                return False, f"interpolation fails at germ [{m1.s},{x}]"
    return True, None


def _first_point(dom, covered, space):
    if isinstance(dom, DiscreteSet):
        return sorted(dom.points - covered.points)[0]
    rest = dom.intersect(covered.complement_in(space))
    return rest.pieces[0].sample_point()


def _region_atoms(g, region):
    """Representative points, one per atomic part of a region."""
    if g.kind == "discrete":
        return sorted(region.points)
    out = []
    for cell in g.atomic_cells:
        probe = cell.sample_point()
        if probe in region:
            out.append(probe)
    return out


# ---------------------------------------------------------------------------
# Injectivity of s -> O_s
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InjectivityReport:
    injective: bool
    witness: tuple[str, str] | None
    continuous: bool | None
    semi_faithful: bool
    zero_fiber_empty: bool | None
    hypotheses_hold: bool
    implication_ok: bool


def map_s_to_Os_injective(b) -> InjectivityReport:
    """Injectivity of s -> O_s, with the sufficient hypotheses (continuity of
    S, semi-faithfulness, trivial zero fiber) evaluated alongside.

    A fixture satisfying the hypotheses but failing injectivity indicates a
    fatal bug and is flagged through implication_ok=False.
    """
    action = b.action
    S = action.semigroup
    injective, witness = True, None
    for s, t in itertools.combinations(S.elements, 2):
        if action.domain_of(s) != action.domain_of(t):
            continue
        if action.domain_of(s).issubset(_equality_region(action, s, t)):
            injective, witness = False, (s, t)
            break

    try:
        continuous, _ = is_continuous(S)
    except NoZeroElement:
        continuous = None

    idems = S.idempotents()
    domains = [action.domain_of(e) for e in idems]
    semi_faithful = len({d for d in map(_freeze, domains)}) == len(idems) and all(
        (not d.is_empty()) or (S.zero is not None and e == S.zero)
        for e, d in zip(idems, domains)
    )
    zero_fiber_empty = None
    if S.zero is not None:
        zero_fiber_empty = action.domain_of(S.zero).is_empty()

    hypotheses = bool(continuous) and semi_faithful and bool(zero_fiber_empty)
    implication_ok = (not hypotheses) or injective
    return InjectivityReport(
        injective=injective,
        witness=witness,
        continuous=continuous,
        semi_faithful=semi_faithful,
        zero_fiber_empty=zero_fiber_empty,
        hypotheses_hold=hypotheses,
        implication_ok=implication_ok,
    )


def _freeze(u):
    if isinstance(u, DiscreteSet):
        return ("d", tuple(sorted(u.points)))
    return ("i", u.pieces)


# ---------------------------------------------------------------------------
# Plain finite groupoids (round-trip inputs)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteGroupoid:
    """A finite groupoid with units listed among the arrows."""

    units: tuple[str, ...]
    arrows: tuple[str, ...]
    src: dict
    rng: dict
    compose_table: dict  # (a, b) -> c whenever src[a] == rng[b]
    inv_table: dict

    def __post_init__(self):
        for u in self.units:
            if u not in self.arrows:
                raise ValueError(f"unit {u!r} not listed among arrows")
            if self.src[u] != u or self.rng[u] != u:
                raise ValueError(f"unit {u!r} must have src = rng = itself")
        for a in self.arrows:
            if self.src[a] not in self.units or self.rng[a] not in self.units:
                raise ValueError(f"arrow {a!r} has non-unit source or range")
        for a in self.arrows:
            for b in self.arrows:
                comp = (a, b) in self.compose_table
                if comp != (self.src[a] == self.rng[b]):
                    raise ValueError(f"composability of ({a},{b}) is wrong")
        for a in self.arrows:
            ia = self.inv_table[a]
            if self.src[ia] != self.rng[a] or self.rng[ia] != self.src[a]:
                raise ValueError(f"inverse of {a!r} has wrong endpoints")
            if self.compose_table[(a, ia)] != self.rng[a]:
                raise ValueError(f"{a!r} * inv != range unit")
            if self.compose_table[(ia, a)] != self.src[a]:
                raise ValueError(f"inv * {a!r} != source unit")
        for a in self.arrows:
            for b in self.arrows:
                if (a, b) not in self.compose_table:
                    continue
                ab = self.compose_table[(a, b)]
                if self.src[ab] != self.src[b] or self.rng[ab] != self.rng[a]:
                    raise ValueError(f"compose({a},{b}) has wrong endpoints")
                for c in self.arrows:
                    if (b, c) in self.compose_table:
                        if self.compose_table[(ab, c)] != self.compose_table[
                            (a, self.compose_table[(b, c)])
                        ]:
                            raise ValueError(f"associativity fails at ({a},{b},{c})")

    def is_bissection(self, subset) -> bool:
        srcs = [self.src[a] for a in subset]
        rngs = [self.rng[a] for a in subset]
        return len(set(srcs)) == len(srcs) and len(set(rngs)) == len(rngs)

    def product_set(self, u, v) -> frozenset:
        out = set()
        for a in u:
            for b in v:
                if (a, b) in self.compose_table:
                    out.add(self.compose_table[(a, b)])
        return frozenset(out)

    def inverse_set(self, u) -> frozenset:
        return frozenset(self.inv_table[a] for a in u)


def is_wide_family(g: FiniteGroupoid, family) -> tuple[bool, str | None]:
    """Covering + interpolation for a family of arrow-subsets of a finite
    groupoid."""
    fam = [frozenset(m) for m in family]
    for m in fam:
        if not g.is_bissection(m):
            raise NotABissection(m, "source or range not injective")
    covered = set().union(*fam) if fam else set()
    if covered != set(g.arrows):
        missing = sorted(set(g.arrows) - covered)[0]
        return False, f"covering fails at {missing}"
    for u in fam:
        for v in fam:
            for arrow in u & v:
                if not any(arrow in w and w <= (u & v) for w in fam):
                    return False, f"interpolation fails at {arrow}"
    return True, None
