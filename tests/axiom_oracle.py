"""Independent oracle for ``validate_axioms``: the exhaustive basis scan.

It multiplies every basis pair, triple and order-pair product and skips
no tuple, where ``validate_axioms`` skips the tuples whose products are
zero on both sides.  ``full_scan`` returns the complete ``failures`` list,
so a test can compare it with ``validate_axioms(b).failures`` entry by
entry.

The scan is split at the boundary between the product families (which use
only ``mul``, ``star`` and ``norm``) and the inclusion families, so that a
bundle which differs from another only in ``incl`` can reuse the product
part.

Run as a script, it sweeps random bundles with their rescaled-inclusion
mutants and prints mismatches and the runtime:

    PYTHONPATH=src python tests/axiom_oracle.py --seeds 200
"""

from __future__ import annotations

import itertools


def product_failures(b, tol: float = 1e-9) -> list:
    """Submultiplicativity, star anti-multiplicativity, associativity,
    positivity, the C*-identity, star involutive and star isometric."""
    S = b.semigroup
    failures = []

    def close(u, v):
        return abs(u - v) <= tol * max(1.0, abs(u), abs(v))

    def elements_close(x, y, pts):
        return all(abs(x.value(p) - y.value(p)) <= tol for p in pts)

    basis = {s: b.fiber_basis(s) for s in S.elements}

    for s, t in itertools.product(S.elements, repeat=2):
        for a, c in itertools.product(basis[s], basis[t]):
            ab = b.mul(a, c)
            na, nc = b.norm(a), b.norm(c)
            if b.norm(ab) > na * nc + tol * max(1.0, na * nc):
                failures.append(("submultiplicative", (s, t)))
                break
            ba_star = b.mul(b.star(c), b.star(a))
            if not elements_close(b.star(ab), ba_star, b._sorted_points(
                b.fiber_domain(S.star(S.mul(s, t))))):
                failures.append(("star_antimultiplicative", (s, t)))
                break
        else:
            continue
        break

    for r, s, t in itertools.product(S.elements, repeat=3):
        rst = S.mul(S.mul(r, s), t)
        pts = b._sorted_points(b.fiber_domain(rst))
        done = False
        for a, c, d in itertools.product(basis[r], basis[s], basis[t]):
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
    return failures


def inclusion_failures(b, tol: float = 1e-9) -> list:
    """Inclusion isometric, inclusion/involution, inclusion/multiplication
    and transitivity of the inclusions."""
    S = b.semigroup
    failures = []

    def close(u, v):
        return abs(u - v) <= tol * max(1.0, abs(u), abs(v))

    def elements_close(x, y, pts):
        return all(abs(x.value(p) - y.value(p)) <= tol for p in pts)

    basis = {s: b.fiber_basis(s) for s in S.elements}

    order_pairs = [
        (s, t)
        for s in S.elements
        for t in S.elements
        if S.leq(s, t) and s != t
    ]
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
        done = False
        for a, c in itertools.product(basis[s], basis[u]):
            lhs = b.mul(b.incl(t, a), b.incl(v, c))
            rhs = b.incl(S.mul(t, v), b.mul(a, c))
            pts = b._sorted_points(b.fiber_domain(S.mul(t, v)))
            if not elements_close(lhs, rhs, pts):
                failures.append(("inclusion_multiplicative", (s, t, u, v)))
                done = True
                break
        if done:
            break
    # transitivity j_{t,r} = j_{t,s} j_{s,r}
    for r in S.elements:
        for s in S.elements:
            for t in S.elements:
                if S.leq(r, s) and S.leq(s, t):
                    for a in basis[r]:
                        lhs = b.incl(t, a)
                        rhs = b.incl(t, b.incl(s, a))
                        if not elements_close(lhs, rhs, b._sorted_points(b.fiber_domain(t))):
                            failures.append(("inclusion_transitive", (r, s, t)))
    return failures


def full_scan(b, tol: float = 1e-9) -> list:
    """The complete failures list of the exhaustive scan."""
    return product_failures(b, tol) + inclusion_failures(b, tol)


def rescaled_pair(b):
    """(b's product-family failures, b's rescaled-inclusion mutant, the
    mutant's complete oracle failures).

    The mutant overrides only ``incl``, so its product families are those
    of b; only its inclusion families are scanned again."""
    from germlab.fellbundle import FellBundle
    from germlab.fixtures import RescaledInclusionBundle, rescaled_inclusion_bundle

    overridden = {k for k in vars(RescaledInclusionBundle) if callable(getattr(FellBundle, k, None))}
    assert overridden == {"incl"}, overridden
    bad = rescaled_inclusion_bundle(b)
    base = product_failures(b)
    return base, bad, base + inclusion_failures(bad)


def sweep(seeds: int) -> dict:
    """Oracle against ``validate_axioms`` on random bundles 0..seeds-1 at
    8x16 and 16x32, each with its rescaled-inclusion mutant."""
    import time

    from germlab.fellbundle import validate_axioms
    from germlab.fixtures import random_bundle

    t0 = time.perf_counter()
    compared, mismatches = 0, []
    for size in ((8, 16), (16, 32)):
        for seed in range(seeds):
            b = random_bundle(seed, *size)
            base, bad, bad_expected = rescaled_pair(b)
            expected = base + inclusion_failures(b)
            for name, bundle, want in (("plain", b, expected), ("rescaled", bad, bad_expected)):
                got = validate_axioms(bundle).failures
                compared += 1
                if got != want:
                    mismatches.append({"size": size, "seed": seed, "bundle": name,
                                       "oracle": want, "scan": got})
    return {"compared": compared, "mismatches": mismatches,
            "seconds": round(time.perf_counter() - t0, 1)}


if __name__ == "__main__":
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=200)
    print(json.dumps(sweep(parser.parse_args().seeds), default=str))
