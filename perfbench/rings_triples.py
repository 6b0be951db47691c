"""Library-level workload: the ring-side paths no CLI command reaches.

Criterion-7 path: ``extract_triple`` and ``triple_to_J`` on both
orientations of every trace-divisible ring in the ``zmat`` orbit table,
checking the balance conditions and N(J) = g = content of the form.

Criterion-4 path: for every form maximal at p in {2, 3, 5}, the splitting
type and the subring counts of index p, p^2, p^3 against ``s_sequence``.

Every check is an explicit comparison (``assert`` vanishes under -O).
Each result is one line on stdout, so the digest of stdout pins them all.
Functions are looked up on their modules at call time, so the traced run's
patched bindings are the ones used.
"""

from __future__ import annotations

import random
import sys

from cubicount import bridge, counting, forms, rings

PRIMES = (2, 3, 5)
POWERS = (1, 2, 3)


def _sample(pool, bound, key, variant):
    """Variant 0: every member with key <= bound.  Other variants: as many
    members, drawn with a seeded generator from a pool 10% wider, in pool
    order."""
    base = [x for x in pool if key(x) <= bound]
    if variant == 0:
        return base
    picked = set(random.Random(variant).sample(range(len(pool)), len(base)))
    return [x for i, x in enumerate(pool) if i in picked]


def run(variant: int, triples_disc: int, subring_disc: int, out=sys.stdout) -> int:
    """Run both paths; return 0 if every check holds, else 1."""
    failures = 0
    wide = triples_disc if variant == 0 else triples_disc * 11 // 10
    table = counting.orbit_table(wide, True)
    pool = [orb.form for D in sorted(table) for orb in table[D]]
    for form in _sample(pool, triples_disc, lambda f: abs(forms.disc(f)), variant):
        for sign in (1, -1):
            trip = bridge.extract_triple(form, sign)
            Dp, g, J = bridge.triple_to_J(trip)
            ok = (
                trip.norm_condition()
                and trip.containment_condition()
                and J.norm == g == trip.content
            )
            failures += not ok
            out.write("triple %s %+d %d %d %s %s\n" % (form, sign, Dp, g, J, "ok" if ok else "FAIL"))

    wide = subring_disc if variant == 0 else subring_disc * 11 // 10
    pool = counting.enumerate_orbits(wide)
    for form in _sample(pool, subring_disc, lambda f: abs(forms.disc(f)), variant):
        ring = rings.ring_from_form(form)
        for p in PRIMES:
            if not rings.is_maximal_at_p(form, p):
                continue
            sigma = rings.splitting_type(form, p)
            found = [len(rings.subrings_of_index(ring, p ** k)) for k in POWERS]
            want = [counting.s_sequence(sigma, p, k) for k in POWERS]
            ok = found == want
            failures += not ok
            out.write("subrings %s %d %s %s %s\n" % (form, p, sigma, found, "ok" if ok else "FAIL"))
    return 1 if failures else 0
