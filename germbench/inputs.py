"""Benchmark inputs: structures, seeded documents and the per-workload plans.

Every input is made from the workload seed.  The program under test only
ever receives the JSON documents built here (or, for the rescaled-inclusion
mutants, a bundle object parsed from one inside the timed operation).

Documents never repeat within a run: each operation renames every label of
its base document with a tag unique to the run (``label!tag``).  ``!``
sorts below every character used in labels, so renaming keeps the relative
order of labels, and with it every scan order and every first witness.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from germlab import cli, fixtures, serialize
from germlab.fellbundle import GroupoidPresentation, TwistedActionPresentation, build_bundle
from germlab.invsgp import validate_inverse_semigroup
from germlab.spaces import DiscreteMap, DiscreteSpace, validate_action

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
SEP = "!"

# Random-bundle sizes as (max |S|, max |X|); the catalogue holds the
# random_bundle seeds 0..CATALOGUE_SIZE-1 of each, with golden answers.
SIZES = {"8x16": (8, 16), "16x32": (16, 32)}
CATALOGUE_SIZE = 1000

# Pipeline runs on random bundles of basis dimension below this.  Above it a
# verdict takes 0.3 to 8 s, and the few a run holds would decide its figures.
PIPELINE_MAX_BASIS_DIM = 26

DISCRETE_NAMED = ("z2-flip", "semilattice-01", "zero-bundle", "z4-cocycle")
# Odd grid resolutions of the worked-example pipeline and cartan-example ops.
WORKED_RANGE = (11, 51)
CARTAN_RANGE = (51, 401)
FOURTH_ROOTS = (1 + 0j, 1j, -1 + 0j, -1j)
GOLDEN_RATIO = (5 ** 0.5 - 1) / 2


# ---------------------------------------------------------------------------
# Structures built through the public constructors
# ---------------------------------------------------------------------------


def rook_bundle(n: int):
    """The symmetric inverse monoid I_n (all partial bijections of n points)
    acting tautologically; untwisted."""
    pts = [f"p{i}" for i in range(n)]
    maps = sorted(
        tuple(sorted(zip(dom, img)))
        for k in range(n + 1)
        for dom in itertools.combinations(pts, k)
        for img in itertools.permutations(pts, k)
    )
    labels = [f"r{i}" for i in range(len(maps))]
    index = dict(zip(maps, labels))

    def compose(f, g):  # f after g
        fd = dict(f)
        return tuple(sorted((x, fd[y]) for x, y in g if y in fd))

    table = [[index[compose(f, g)] for g in maps] for f in maps]
    S = validate_inverse_semigroup(labels, table, zero=index[()])
    space = DiscreteSpace(tuple(pts))
    action = validate_action(S, space, {index[m]: DiscreteMap(space, m) for m in maps})
    return build_bundle(TwistedActionPresentation(S, action))


def _coboundary(g, rng: random.Random) -> dict:
    """sigma(a, b) = c(a) c(b) / c(ab) for a gauge c in the fourth roots of
    unity with c = 1 on units, so the twist is exact and cohomologically
    trivial."""
    gauge = {a: (1 + 0j if a in g.units else rng.choice(FOURTH_ROOTS)) for a in g.arrows}
    return {(a, b): gauge[a] * gauge[b] / gauge[c] for (a, b), c in g.compose_table.items()}


def pair_groupoid_bundle(k: int, rng: random.Random):
    g = fixtures.pair_groupoid(tuple(f"q{i}" for i in range(k)))
    family = tuple(fixtures.singleton_family(g))
    return build_bundle(GroupoidPresentation(g, _coboundary(g, rng), family))


def group_groupoid_bundle(n: int, rng: random.Random):
    g = fixtures.group_groupoid(n)
    family = tuple(fixtures.singleton_family(g))
    return build_bundle(GroupoidPresentation(g, _coboundary(g, rng), family))


def worked_example_doc(n: int) -> dict:
    doc = cli.named_fixture("worked-example")
    doc["grid_resolution"] = n
    return doc


def fixture_doc(name: str, rng: random.Random | None = None) -> dict:
    """Base document of a fixed structure named in the golden record."""
    kind, _, arg = name.partition("-")
    if name in DISCRETE_NAMED:
        return cli.named_fixture(name)
    if kind == "rook":
        return serialize.emit_bundle(rook_bundle(int(arg)))
    if kind == "pair":
        return serialize.emit_bundle(pair_groupoid_bundle(int(arg), rng or random.Random(0)))
    if kind == "group":
        return serialize.emit_bundle(group_groupoid_bundle(int(arg), rng or random.Random(0)))
    raise ValueError(f"unknown fixture {name!r}")


def random_doc(size: str, seed: int) -> dict:
    return cli.seeded_random_fixture(seed, *SIZES[size])


# ---------------------------------------------------------------------------
# Renaming
# ---------------------------------------------------------------------------


def rename(doc: dict, tag: str) -> dict:
    """A copy of a bundle document with every element, point and arrow label
    suffixed by ``!tag``; rational points of interval spaces are kept."""

    def r(label):
        return f"{label}{SEP}{tag}"

    out = copy.deepcopy(doc)
    if doc["kind"] == "groupoid_line_bundle":
        g = out["groupoid"]
        g["units"] = [r(u) for u in g["units"]]
        g["arrows"] = [{"name": r(a["name"]), "src": r(a["src"]), "rng": r(a["rng"])}
                       for a in g["arrows"]]
        g["compose"] = [[r(a), r(b), r(c)] for a, b, c in g["compose"]]
        g["inv"] = {r(a): r(b) for a, b in g["inv"].items()}
        out["cocycle"] = [[r(a), r(b), v] for a, b, v in out["cocycle"]]
        out["subsemigroup"] = [[r(a) for a in m] for m in out["subsemigroup"]]
        return out
    discrete = doc["space"]["kind"] == "discrete"
    pt = r if discrete else (lambda x: x)
    sg = out["semigroup"]
    sg["elements"] = [r(s) for s in sg["elements"]]
    if "zero" in sg:
        sg["zero"] = r(sg["zero"])
    if discrete:
        out["space"]["points"] = [pt(x) for x in out["space"]["points"]]
        out["action"] = {r(s): {"map": {pt(x): pt(y) for x, y in m.get("map", {}).items()}}
                         for s, m in doc["action"].items()}
    else:
        out["action"] = {r(s): m for s, m in out["action"].items()}
    out["omega"] = [
        [r(s), r(t), {pt(x): v for x, v in val.items()} if isinstance(val, dict) else val]
        for s, t, val in out["omega"]
    ]
    return out


def strip(obj):
    """Undo ``rename`` on a report fragment (strings, lists, tuples, dicts)."""
    if isinstance(obj, str):
        return obj.split(SEP, 1)[0]
    if isinstance(obj, (list, tuple)):
        return [strip(v) for v in obj]
    if isinstance(obj, dict):
        return {strip(k): strip(v) for k, v in obj.items()}
    return obj


# ---------------------------------------------------------------------------
# Mutants
# ---------------------------------------------------------------------------


def table_mutant(size: str, seed: int, rng: random.Random):
    """A random-bundle document whose multiplication table is mutated, with
    the certificate of the first broken axiom instance, or None."""
    b = fixtures.random_bundle(seed, *SIZES[size])
    out = fixtures.mutate_semigroup_table(b.semigroup, rng)
    if out is None:
        return None
    elems, table, certificate = out
    doc = serialize.emit_bundle(b)
    index = {s: i for i, s in enumerate(elems)}
    doc["semigroup"]["mul"] = [[index[v] for v in row] for row in table]
    return doc, certificate


def cocycle_mutant(size: str, seed: int, rng: random.Random):
    """A random-bundle document with one forced-1 cocycle slot denormalized,
    with the mutated slot and value, or None."""
    b = fixtures.random_bundle(seed, *SIZES[size])
    out = fixtures.mutate_cocycle(b, rng)
    if out is None:
        return None
    bad, info = out
    return serialize.emit_bundle(dataclasses.replace(b, omega=bad)), info


# ---------------------------------------------------------------------------
# Operations and plans
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One closed-loop request: its kind, payload and the known answer."""

    kind: str  # pipeline | verify_iso | cartan | reject_table | reject_cocycle | reject_incl
    payload: object  # a bundle document, or (n, weight) for cartan
    expect: dict = field(default_factory=dict)


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Plan:
    """The seeded stream of operations of one workload run.

    ``first()`` gives the operations run once at the start of every run and
    ``round()`` the next round of a repeating, stratified mix.  Each round
    draws the same number of documents from each stratum of the random-bundle
    catalogue (strata by basis dimension), so runs with different seeds do
    the same kind and amount of work.
    """

    def __init__(self, workload: str, seed: int, golden: dict, tag_suffix: str = ""):
        self.workload, self.seed, self.golden = workload, seed, golden
        self.rng = random.Random(f"{workload}/{seed}")
        self.suffix = tag_suffix
        self.counter = 0
        self._pools: dict = {}
        spec = WORKLOADS[workload]
        self.first_spec, self.round_spec = spec["first"], spec["round"]

    # -- catalogue draws ------------------------------------------------------

    def _walk(self, key, values):
        """Next of ``values``, which are sorted by size, along the golden-ratio
        sequence from a seeded offset, skipping values already drawn until
        all have been.  Every prefix of the draws is spread evenly over the
        values, so runs with different seeds draw different inputs of the
        same size mix."""
        if key not in self._pools:
            self._pools[key] = [list(values), self.rng.random(), set()]
        values, u, used = self._pools[key]
        if not values:
            raise ValueError(f"nothing to draw for {key}")
        if len(used) == len(values):
            used.clear()
        while True:
            i = int(u * len(values))
            u = (u + GOLDEN_RATIO) % 1.0
            if i not in used:
                break
        used.add(i)
        self._pools[key][1] = u
        return values[i]

    def _draw(self, size: str, lo: int, hi: int, need=None) -> int:
        """Next catalogue seed whose basis dimension lies in [lo, hi)."""
        entries = self.golden["catalogue"][size]
        stratum = sorted((e["basis_dim"], e["units"], e["size"], e["germs"], int(seed))
                         for seed, e in entries.items()
                         if lo <= e["basis_dim"] < hi and (need is None or e[need]))
        return self._walk((size, lo, hi, need), [entry[-1] for entry in stratum])

    def _quantile_draws(self, size: str, k: int, lo: int, hi: int) -> list:
        """One catalogue seed from each of ``k`` equal-count strata of the
        catalogue entries of basis dimension in [lo, hi), sorted by size, so
        the draws keep the catalogue's own size mix."""
        entries = self.golden["catalogue"][size]
        ranked = sorted((e["basis_dim"], e["units"], e["size"], e["germs"], int(seed))
                        for seed, e in entries.items() if lo <= e["basis_dim"] < hi)
        n = len(ranked)
        return [self._walk((size, k, lo, hi, i),
                           [e[-1] for e in ranked[i * n // k:(i + 1) * n // k]])
                for i in range(k)]

    def _tag(self) -> str:
        self.counter += 1
        return f"{self.seed}.{self.counter}{self.suffix}"

    # -- operations ------------------------------------------------------------

    def _doc_op(self, kind: str, doc: dict, expect: dict) -> Op:
        return Op(kind, rename(doc, self._tag()), expect)

    def build(self, item) -> list:
        """The operations of one plan item (a tuple; see WORKLOADS)."""
        what = item[0]
        if what == "fixture":
            name, kind = item[1], item[2]
            doc = fixture_doc(name, random.Random(self.rng.random()))
            return [self._doc_op(kind, doc, {"fixture": name})]
        if what == "catalogue":
            _, kind, size, k, lo, hi = item
            return [self._doc_op(kind, random_doc(size, seed), {"catalogue": (size, str(seed))})
                    for seed in self._quantile_draws(size, k, lo, hi)]
        if what == "worked":
            _, lo, hi = item
            n = self._walk(item, range(lo, hi + 1, 2))
            return [self._doc_op("pipeline", worked_example_doc(n), {"worked": n})]
        if what == "cartan":
            _, lo, hi = item
            n = self._walk(item, range(lo, hi + 1, 2))
            return [Op("cartan", (n, w), {"cartan": (n, w)}) for w in CARTAN_WEIGHTS]
        if what == "mutant":
            _, kind, size, lo, hi = item
            if kind == "reject_incl":
                seed = self._draw(size, lo, hi, need="strict_pair")
                return [self._doc_op(kind, random_doc(size, seed), {})]
            while True:
                seed = self._draw(size, lo, hi)
                mrng = random.Random(f"{self.seed}/{self.counter}/{seed}")
                out = (table_mutant if kind == "reject_table" else cocycle_mutant)(size, seed, mrng)
                if out is not None:
                    doc, certificate = out
                    return [self._doc_op(kind, doc, {"certificate": certificate})]
        raise ValueError(f"unknown plan item {item!r}")

    def first(self) -> list:
        return [op for item in self.first_spec for op in self.build(item)]

    def round(self) -> list:
        ops = [op for item in self.round_spec for op in self.build(item)]
        self.rng.shuffle(ops)
        return ops


CARTAN_WEIGHTS = ("1-x/2", "1")

# Why each workload is built the way it is:
#
# discrete-pipeline  the accept path of `germlab pipeline`: named discrete
#   fixtures, seeded random bundles at 8x16 and 16x32, pair groupoids built
#   through GroupoidPresentation, and rook-3 (|S| = 34, |X| = 3) once per run.
#   Each round draws one random bundle from each tenth of either catalogue,
#   so the mix is the catalogue's, below basis dimension 26 (README.md).
#   Most time is in the axiom scan and the convolution-algebra checks.
# algebra-iso  the `verify-iso` sequence on catalogue bundles of basis
#   dimension 20 to 31, which have large germ groupoids, in the catalogue's
#   mix (six strata per size), pair groupoids and Z/8; no axiom scan runs, so an axiom-scan change must leave it unchanged
#   while an algebra change shows.
# interval-worked  the only exact-rational path: `pipeline` on the worked
#   example at odd grid resolutions and the `cartan-example` calls with a
#   faithful and a non-faithful weight; no convolution algebra runs.
# reject-mutants  the reject path: mutated tables, denormalized cocycles and
#   rescaled inclusions, each rejected by the layer its certificate names.
#   A check that does all its work before looking for the first witness
#   would speed up discrete-pipeline and slow this workload down.
#
# Plan items: ("fixture", name, op kind), ("catalogue", op kind, size, k,
# lo, hi) for one draw from each of k equal-count strata of the catalogue
# entries with basis dimension in [lo, hi), ("worked", lo, hi)
# and ("cartan", lo, hi) for odd grid resolutions in [lo, hi], and
# ("mutant", op kind, size, lo, hi).
WORKLOADS = {
    "discrete-pipeline": {
        "trace_rounds": 4,
        "first": [("fixture", "rook-3", "pipeline")],
        "round": [("fixture", name, "pipeline") for name in DISCRETE_NAMED]
        + [("fixture", f"pair-{k}", "pipeline") for k in (2, 3, 4)]
        + [("catalogue", "pipeline", size, 10, 0, PIPELINE_MAX_BASIS_DIM) for size in SIZES],
    },
    "algebra-iso": {
        "trace_rounds": 8,
        "first": [],
        "round": [("fixture", name, "verify_iso")
                  for name in ("z2-flip", "pair-3", "pair-4", "group-8")]
        + [("catalogue", "verify_iso", size, 6, 20, 32) for size in SIZES],
    },
    "interval-worked": {
        "trace_rounds": 8,
        "first": [],
        "round": [("worked", 11, 23), ("worked", 25, 37), ("worked", 39, 51),
                  ("cartan", *CARTAN_RANGE)],
    },
    "reject-mutants": {
        "trace_rounds": 16,
        "first": [],
        "round": [("mutant", "reject_table", size, 0, 30) for size in ("8x16", "16x32")]
        + [("mutant", "reject_cocycle", "16x32", 0, 30)] * 6
        + [("mutant", "reject_incl", "8x16", 10, 20),
           ("mutant", "reject_incl", "8x16", 20, 26)],
    },
}
