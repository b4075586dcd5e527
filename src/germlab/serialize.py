"""JSON documents for bundles, groupoids and reports.

Conventions: rationals as "p/q" strings (plain integers allowed), complex
numbers as [re, im] pairs, circle values as exact rational angles "k/n"
(meaning exp(2 pi i k/n); exact arithmetic for 4th roots) or as [re, im].
Pair-indexed tables are stored as lists of triples [a, b, value].
"""

from __future__ import annotations

import cmath
import hashlib
import json
from fractions import Fraction

from germlab.fellbundle import (
    Cocycle,
    FellBundle,
    GroupoidPresentation,
    TwistedActionPresentation,
    build_bundle,
)
from germlab.germgpd import FiniteGroupoid, Germ
from germlab.invsgp import validate_inverse_semigroup
from germlab.spaces import (
    AffinePiece,
    DiscreteMap,
    DiscreteSpace,
    IntervalSpace,
    Piece,
    PiecewiseAffineMap,
    frac,
    validate_action,
)


class ParseError(ValueError):
    def __init__(self, location, message):
        super().__init__(f"{location}: {message}")
        self.location = location


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------


def emit_rational(x: Fraction) -> str:
    x = frac(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rational(v) -> Fraction:
    try:
        return Fraction(v) if not isinstance(v, float) else Fraction(v).limit_denominator(10**12)
    except (ValueError, TypeError) as exc:
        raise ParseError("rational", f"cannot parse {v!r}") from exc


_EXACT_ANGLES = {
    Fraction(0, 1): 1 + 0j,
    Fraction(1, 4): 1j,
    Fraction(1, 2): -1 + 0j,
    Fraction(3, 4): -1j,
}


def parse_circle(v) -> complex:
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(v[0], v[1])
    if isinstance(v, (int, float, complex)):
        return complex(v)
    angle = parse_rational(v) % 1
    if angle in _EXACT_ANGLES:
        return _EXACT_ANGLES[angle]
    return cmath.exp(2j * cmath.pi * angle)


def emit_complex(z: complex) -> list:
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# Spaces, sets and maps
# ---------------------------------------------------------------------------


def parse_space(doc):
    kind = doc.get("kind")
    if kind == "discrete":
        return DiscreteSpace(tuple(doc["points"]))
    if kind == "interval":
        comps = tuple((parse_rational(a), parse_rational(b)) for a, b in doc["components"])
        return IntervalSpace(comps)
    raise ParseError("space", f"unknown kind {kind!r}")


def emit_space(space) -> dict:
    if space.kind == "discrete":
        return {"kind": "discrete", "points": list(space.points)}
    return {
        "kind": "interval",
        "components": [[emit_rational(a), emit_rational(b)] for a, b in space.components],
    }


def parse_point(space, v):
    return v if space.kind == "discrete" else parse_rational(v)


def emit_point(space, x):
    return x if space.kind == "discrete" else emit_rational(x)


def parse_piece(doc) -> Piece:
    return Piece(
        parse_rational(doc["lo"]), bool(doc["lo_closed"]),
        parse_rational(doc["hi"]), bool(doc["hi_closed"]),
    )


def emit_piece(p: Piece) -> dict:
    return {
        "lo": emit_rational(p.lo), "lo_closed": p.lo_closed,
        "hi": emit_rational(p.hi), "hi_closed": p.hi_closed,
    }


def parse_partial_homeo(space, doc):
    if space.kind == "discrete":
        return DiscreteMap(space, tuple(sorted(doc.get("map", {}).items())))
    pieces = tuple(
        AffinePiece(parse_piece(p["domain"]), parse_rational(p["alpha"]),
                    parse_rational(p["beta"]))
        for p in doc.get("pieces", [])
    )
    return PiecewiseAffineMap(space, pieces)


def emit_partial_homeo(m) -> dict:
    if isinstance(m, DiscreteMap):
        return {"map": {a: b for a, b in m.pairs}}
    return {
        "pieces": [
            {"domain": emit_piece(p.domain), "alpha": emit_rational(p.alpha),
             "beta": emit_rational(p.beta)}
            for p in m.pieces
        ]
    }


# ---------------------------------------------------------------------------
# Bundle documents
# ---------------------------------------------------------------------------


def parse_semigroup(doc):
    elements = list(doc["elements"])
    n = len(elements)
    table = []
    for i, row in enumerate(doc["mul"]):
        for k, j in enumerate(row):
            # bool is an int subclass, and a negative index would wrap around
            if isinstance(j, bool) or not isinstance(j, int) or not 0 <= j < n:
                raise ParseError(
                    "semigroup.mul",
                    f"row {i}, column {k}: {json.dumps(j, default=repr)} is not an "
                    f"integer in [0, {n})")
        table.append([elements[j] for j in row])
    return validate_inverse_semigroup(elements, table, zero=doc.get("zero"))


def emit_semigroup(S) -> dict:
    index = {s: i for i, s in enumerate(S.elements)}
    out = {"elements": list(S.elements),
           "mul": [[index[v] for v in row] for row in S.table]}
    if S.zero is not None:
        out["zero"] = S.zero
    return out


def parse_bundle(doc) -> FellBundle:
    kind = doc.get("kind")
    if kind == "twisted_action":
        S = parse_semigroup(doc["semigroup"])
        space = parse_space(doc["space"])
        theta = {
            s: parse_partial_homeo(space, doc["action"][s]) for s in S.elements
        }
        action = validate_action(S, space, theta)
        entries = {}
        for s, t, val in doc.get("omega", []):
            if isinstance(val, dict):
                entries[(s, t)] = {
                    parse_point(space, k): parse_circle(v) for k, v in val.items()
                }
            else:
                entries[(s, t)] = parse_circle(val)
        return build_bundle(
            TwistedActionPresentation(
                S, action, Cocycle(entries), doc.get("grid_resolution", 101)
            )
        )
    if kind == "groupoid_line_bundle":
        g = parse_groupoid(doc["groupoid"])
        cocycle = {(a, b): parse_circle(v) for a, b, v in doc.get("cocycle", [])}
        family = tuple(frozenset(m) for m in doc["subsemigroup"])
        return build_bundle(GroupoidPresentation(g, cocycle, family))
    raise ParseError("bundle", f"unknown kind {kind!r}")


def emit_bundle(b: FellBundle) -> dict:
    if b.presentation == "groupoid_line_bundle":
        g, sigma, label_to_set, _ = b.groupoid_data
        return {
            "kind": "groupoid_line_bundle",
            "groupoid": emit_groupoid(g),
            "cocycle": [[a, c, emit_complex(complex(v))] for (a, c), v in sorted(sigma.items())],
            "subsemigroup": [sorted(m) for _, m in sorted(label_to_set.items())],
        }
    space = b.space
    omega = []
    for (s, t), val in sorted(b.omega.entries.items()):
        if isinstance(val, dict):
            omega.append([s, t, {emit_point(space, k): emit_complex(complex(v))
                                 for k, v in sorted(val.items())}])
        else:
            omega.append([s, t, emit_complex(complex(val))])
    return {
        "kind": "twisted_action",
        "semigroup": emit_semigroup(b.semigroup),
        "space": emit_space(space),
        "action": {s: emit_partial_homeo(b.action.theta_of(s)) for s in b.semigroup.elements},
        "omega": omega,
        "grid_resolution": b.grid_resolution,
    }


# ---------------------------------------------------------------------------
# Groupoid documents
# ---------------------------------------------------------------------------


def parse_groupoid(doc) -> FiniteGroupoid:
    arrows = [a["name"] for a in doc["arrows"]]
    src = {a["name"]: a["src"] for a in doc["arrows"]}
    rng = {a["name"]: a["rng"] for a in doc["arrows"]}
    compose = {(a, b): c for a, b, c in doc["compose"]}
    inv = dict(doc["inv"].items()) if isinstance(doc["inv"], dict) else {
        a: b for a, b in doc["inv"]
    }
    return FiniteGroupoid(
        units=tuple(doc["units"]), arrows=tuple(arrows), src=src, rng=rng,
        compose_table=compose, inv_table=inv,
    )


def emit_groupoid(g: FiniteGroupoid) -> dict:
    return {
        "units": list(g.units),
        "arrows": [{"name": a, "src": g.src[a], "rng": g.rng[a]} for a in g.arrows],
        "compose": [[a, b, c] for (a, b), c in sorted(g.compose_table.items())],
        "inv": {a: g.inv_table[a] for a in g.arrows},
    }


def emit_twisted_groupoid_doc(g: FiniteGroupoid, cocycle: dict, family) -> dict:
    return {
        "groupoid": emit_groupoid(g),
        "cocycle": [[a, b, emit_complex(complex(v))] for (a, b), v in sorted(cocycle.items())],
        "subsemigroup": [sorted(m) for m in sorted(family, key=lambda m: tuple(sorted(m)))],
    }


def parse_twisted_groupoid_doc(doc):
    g = parse_groupoid(doc["groupoid"])
    cocycle = {(a, b): parse_circle(v) for a, b, v in doc.get("cocycle", [])}
    family = tuple(frozenset(m) for m in doc["subsemigroup"])
    return g, cocycle, family


# ---------------------------------------------------------------------------
# Germs and sections
# ---------------------------------------------------------------------------


def emit_germ(space, germ: Germ) -> list:
    return [germ.s, emit_point(space, germ.x)]


def parse_sections_doc(doc, b: FellBundle, groupoid):
    """[{name, coeffs: [[s, point, [re, im]], ...]}] -> list of (name, Section)."""
    from germlab.convalg import Section

    out = []
    for entry in doc.get("sections", []):
        coeffs = {}
        for s, pt, val in entry["coeffs"]:
            germ = groupoid.germ(s, parse_point(b.space, pt))
            coeffs[germ] = coeffs.get(germ, 0j) + complex(val[0], val[1])
        out.append((entry.get("name", f"section{len(out)}"), Section(coeffs)))
    return out


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:16]
