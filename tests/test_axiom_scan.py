"""The axiom scan against the exhaustive oracle, and its counted work.

``validate_axioms`` visits only the basis tuples whose products can be
non-zero when the bundle is discrete with one-point basis elements; the
oracle in ``axiom_oracle.py`` visits every tuple.  Both must give the same
complete ``failures`` list.
"""

import itertools
import random

import pytest
from axiom_oracle import full_scan, inclusion_failures, rescaled_pair

from germlab.fellbundle import (
    FellBundle,
    GroupoidPresentation,
    TwistedActionPresentation,
    build_bundle,
    validate_axioms,
)
from germlab.fixtures import (
    pair_groupoid,
    random_bundle,
    semilattice_01_bundle,
    singleton_family,
    z2_flip_bundle,
    z2_flip_with_zero_bundle,
    z4_cocycle_bundle,
    zero_bundle,
)
from germlab.invsgp import validate_inverse_semigroup
from germlab.spaces import DiscreteMap, DiscreteSpace, validate_action

FOURTH_ROOTS = (1 + 0j, 1j, -1 + 0j, -1j)


def rook_bundle(n: int) -> FellBundle:
    """The symmetric inverse monoid I_n acting on n points; untwisted."""
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


def pair_bundle(k: int) -> FellBundle:
    """The pair groupoid on k points, twisted by a fourth-root coboundary."""
    g = pair_groupoid(tuple(f"q{i}" for i in range(k)))
    rng = random.Random(k)
    gauge = {a: (1 + 0j if a in g.units else rng.choice(FOURTH_ROOTS)) for a in g.arrows}
    sigma = {(a, b): gauge[a] * gauge[b] / gauge[c] for (a, b), c in g.compose_table.items()}
    return build_bundle(GroupoidPresentation(g, sigma, tuple(singleton_family(g))))


def truncated_bundle() -> FellBundle:
    b = z2_flip_bundle()
    b.fiber_basis_map["g"] = [b.indicator("g", "x")]
    return b


def corrupt_cocycle_bundle(value=2.0 + 0j) -> FellBundle:
    """z4-cocycle with w(s*, s) overwritten after construction."""
    b = z4_cocycle_bundle()
    S = b.semigroup
    s = next(t for t in S.elements if S.star(t) != t)
    b.omega.entries[(S.star(s), s)] = {x: value for x in b.space.points}
    return b


def two_point_basis_bundle() -> FellBundle:
    """A basis element supported on two points forces the full scan."""
    b = z2_flip_bundle()
    b.fiber_basis_map["g"] = [b.add(b.indicator("g", "x"), b.indicator("g", "y"))]
    return b


FIXED = {
    "z2-flip": z2_flip_bundle,
    "z2-flip-with-zero": z2_flip_with_zero_bundle,
    "semilattice-01": semilattice_01_bundle,
    "zero-bundle": zero_bundle,
    "z4-cocycle": z4_cocycle_bundle,
    "pair-2": lambda: pair_bundle(2),
    "pair-3": lambda: pair_bundle(3),
    "pair-4": lambda: pair_bundle(4),
    "truncated-basis": truncated_bundle,
    "corrupt-cocycle": corrupt_cocycle_bundle,
    "infinite-cocycle": lambda: corrupt_cocycle_bundle(complex("inf")),
    "two-point-basis": two_point_basis_bundle,
}

RANDOM = [((8, 16), seed) for seed in range(12)] + [((16, 32), seed) for seed in range(8)]


@pytest.mark.parametrize("name", sorted(FIXED))
def test_scan_matches_oracle_on_fixed_bundles(name):
    b = FIXED[name]()
    assert validate_axioms(b).failures == full_scan(b)


@pytest.mark.parametrize("size,seed", RANDOM, ids=[f"{m}x{n}-{s}" for (m, n), s in RANDOM])
def test_scan_matches_oracle_on_random_and_rescaled(size, seed):
    b = random_bundle(seed, *size)
    base, bad, bad_expected = rescaled_pair(b)
    assert validate_axioms(b).failures == base + inclusion_failures(b)
    report = validate_axioms(bad)
    assert report.failures == bad_expected
    assert not report.ok


# Calls of FellBundle.mul during one validate_axioms; the exhaustive scan
# makes 1,036,728 on rook-3 and 245,136 on random 8x16 seed 3.
MUL_BUDGET = {"rook-3": 123_642, "random-8x16-3": 5_516}


@pytest.mark.parametrize("name", sorted(MUL_BUDGET))
def test_axiom_scan_mul_calls_within_budget(name, monkeypatch):
    b = rook_bundle(3) if name == "rook-3" else random_bundle(3)
    calls = [0]
    mul = FellBundle.mul

    def counting_mul(self, a, c):
        calls[0] += 1
        return mul(self, a, c)

    monkeypatch.setattr(FellBundle, "mul", counting_mul)
    assert validate_axioms(b).ok
    assert calls[0] <= MUL_BUDGET[name], calls[0]
