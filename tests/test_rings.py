import hashlib
import os
import random
import subprocess
import sys
from itertools import product
from math import gcd

import pytest

from cubicount import rings
from cubicount.forms import BudgetExceeded, act, disc, evaluate, is_zmat
from cubicount.quad import xgcd
from cubicount.rings import (
    is_maximal,
    is_maximal_at_p,
    max_zmat_subring,
    ring_from_form,
    roots_in_p1,
    splitting_type,
    subrings_of_index,
)
from cubicount.counting import _S1, _S2, enumerate_orbits
from reference import (
    is_associative,
    is_irreducible,
    lattice_ring,
    max_zmat_subring_by_cubes,
    random_unimodular,
    ring_power,
    sublattice_members,
    superrings_of_index_p,
    trace_pairing_disc,
)

Z3 = (0, 1, 1, 0)
T3M1 = (1, 0, 0, -1)  # Z[t]/(t^3 - 1)


def test_z3_form_gives_ring_with_eight_idempotents():
    # the discriminant-1 form corresponds to Z x Z x Z: count idempotents
    C = ring_from_form(Z3)
    idem = 0
    for x0 in range(-2, 3):
        for x1 in range(-2, 3):
            for x2 in range(-2, 3):
                if C.mul((x0, x1, x2), (x0, x1, x2)) == (x0, x1, x2):
                    idem += 1
    assert idem == 8


def test_table_for_t3_minus_1():
    # with alpha = t, beta = t^2: alpha^2 = beta, alpha*beta = 1, beta^2 = alpha
    C = ring_from_form(T3M1)
    assert C.mul((0, 1, 0), (0, 1, 0)) == (0, 0, 1)
    assert C.mul((0, 1, 0), (0, 0, 1)) == (1, 0, 0)
    assert C.mul((0, 0, 1), (0, 0, 1)) == (0, 1, 0)


def test_alpha_beta_product_is_constant():
    rng = random.Random(3)
    for _ in range(200):
        f = tuple(rng.randint(-9, 9) for _ in range(4))
        C = ring_from_form(f)
        assert C.mul((0, 1, 0), (0, 0, 1)) == (-f[0] * f[3], 0, 0)


def test_associativity_random_forms():
    rng = random.Random(4)
    for _ in range(200):
        f = tuple(rng.randint(-9, 9) for _ in range(4))
        assert is_associative(ring_from_form(f))


def test_traces():
    rng = random.Random(5)
    for _ in range(100):
        f = tuple(rng.randint(-9, 9) for _ in range(4))
        C = ring_from_form(f)
        assert C.trace((1, 0, 0)) == 3
        assert C.trace((0, 1, 0)) == -f[1]
        assert C.trace((0, 0, 1)) == f[2]


def test_disc_equals_trace_pairing():
    rng = random.Random(6)
    for _ in range(200):
        f = tuple(rng.randint(-7, 7) for _ in range(4))
        assert trace_pairing_disc(ring_from_form(f)) == disc(f)


def _traces_divisible_by_3(ring):
    return all(ring.trace(v) % 3 == 0 for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_zmat_ring_examples_and_agreement():
    assert _traces_divisible_by_3(ring_from_form(T3M1))
    assert not _traces_divisible_by_3(ring_from_form((1, 1, 0, 0)))
    rng = random.Random(7)
    for _ in range(300):
        f = tuple(rng.randint(-9, 9) for _ in range(4))
        assert _traces_divisible_by_3(ring_from_form(f)) == is_zmat(f)


# ---------------------------------------------------------------------------
# maximal subring with traces in 3Z


def test_max_zmat_subring_of_z3():
    C = ring_from_form(Z3)
    sub, idx, basis = max_zmat_subring(C)
    assert idx == 9
    assert sub.discriminant == 81
    assert _traces_divisible_by_3(sub)


def test_max_zmat_subring_fixes_zmat_rings():
    for f in [T3M1, (1, 3, -3, 2), (2, 3, 3, 1)]:
        C = ring_from_form(f)
        sub, idx, _ = max_zmat_subring(C)
        assert idx == 1
        assert sub.form == C.form


def test_max_zmat_contains_z_plus_3c_and_all_zmat_subrings():
    rng = random.Random(8)
    checked = 0
    while checked < 25:
        f = tuple(rng.randint(-4, 4) for _ in range(4))
        if disc(f) == 0:
            continue
        C = ring_from_form(f)
        sub, idx, basis = max_zmat_subring(C)
        tri = [list(b) for b in basis]
        # contains Z + 3C
        for v in [(1, 0, 0), (0, 3, 0), (0, 0, 3)]:
            assert sublattice_members(tri, v)
        # every index-3 or index-9 subring that is zmat sits inside
        for n in (3, 9):
            for sb in subrings_of_index(C, n):
                S = lattice_ring(C, sb)
                if _traces_divisible_by_3(S):
                    for v in sb:
                        assert sublattice_members(tri, v)
        checked += 1


def test_max_zmat_lattice_is_the_cube_condition():
    # x in {0, 1, 2}^3 lies in the basis rows returned iff x^3 in Z + 3C
    for f in enumerate_orbits(2000):
        for sign in (1, -1):
            C = ring_from_form(f, sign)
            _, _, basis = max_zmat_subring(C)
            for x in product(range(3), repeat=3):
                cube = ring_power(C, x, 3)
                want = cube[1] % 3 == 0 and cube[2] % 3 == 0
                assert sublattice_members(basis, x) == want, (f, sign, x)


def _oracle_forms():
    return enumerate_orbits(3000) + _random_forms(43, 3000)


def test_max_zmat_subring_matches_the_cube_lattice():
    # the first trace-divisible candidate is the oracle's subring {x : x^3
    # in Z + 3C}, read back by lattice_ring: same ring, index and basis
    count = 0
    for f in _oracle_forms():
        for sign in (1, -1):
            C = ring_from_form(f, sign)
            assert max_zmat_subring(C) == max_zmat_subring_by_cubes(C), (f, sign)
            count += 1
    assert count > 10000


def test_sub_form_matches_lattice_ring():
    # F(e x, f x + g y)/(e g) is the form lattice_ring reads off the
    # multiplication table of the subring
    count = 0
    for form in _oracle_forms():
        C = ring_from_form(form)
        for n in (2, 3, 4, 9):
            for basis in subrings_of_index(C, n):
                (_, e, f), (_, _, g) = basis[1:]
                assert rings._sub_form(form, e, f, g) == lattice_ring(C, basis).form, (form, basis)
                count += 1
    assert count > 10000


def test_max_zmat_index3_iff_split_type_121_at_3():
    # sampled maximal rings: index 3 exactly for splitting type 1^2 1 at 3
    rng = random.Random(9)
    seen = set()
    checked = 0
    while checked < 40:
        f = tuple(rng.randint(-5, 5) for _ in range(4))
        if disc(f) == 0 or f in seen:
            continue
        seen.add(f)
        if not is_maximal_at_p(f, 3):
            continue
        C = ring_from_form(f)
        _, idx, _ = max_zmat_subring(C)
        st = splitting_type(f, 3)
        if is_zmat(f):
            assert idx == 1
        else:
            assert idx == 3 if st == "1^2 1" else idx in (3, 9)
            if st == "1^2 1":
                assert idx == 3
            else:
                assert idx == 9
        checked += 1


# ---------------------------------------------------------------------------
# local maximality


def test_maximality_examples():
    assert is_maximal_at_p(T3M1, 2)
    assert not is_maximal_at_p(T3M1, 3)  # disc -27, field disc -3
    assert not is_maximal_at_p((0, 3, 3, 0), 3)
    assert is_maximal((1, 0, -1, 1))  # x^3 - x + 1, disc -23


def test_maximality_agrees_with_superring_oracle():
    rng = random.Random(10)
    checked = 0
    while checked < 200:
        f = tuple(rng.randint(-5, 5) for _ in range(4))
        if disc(f) == 0:
            continue
        p = rng.choice([2, 3, 5])
        C = ring_from_form(f)
        has_super = bool(superrings_of_index_p(C, p))
        assert is_maximal_at_p(f, p) == (not has_super), (f, p)
        checked += 1


def test_maximality_invariant_under_action():
    rng = random.Random(11)
    for _ in range(100):
        f = tuple(rng.randint(-4, 4) for _ in range(4))
        if disc(f) == 0:
            continue
        g = random_unimodular(rng)
        for p in (2, 3):
            assert is_maximal_at_p(f, p) == is_maximal_at_p(act(g, f), p)


def _maximal_by_p2_sweep(f, p):
    """Reference: not maximal iff p divides f, or some point v of P^1(Z/p^2)
    with p^2 | f(v), moved to [1:0] by a unimodular matrix, leaves p | b."""
    if gcd(*f) % p == 0:
        return False
    p2 = p * p
    for v in [(1, t) for t in range(p2)] + [(t * p, 1) for t in range(p)]:
        if evaluate(f, *v) % p2:
            continue
        _, x, y = xgcd(*v)
        r, s = -y, x  # [[v0, v1], [r, s]] is unimodular
        fx = 3 * f[0] * v[0] ** 2 + 2 * f[1] * v[0] * v[1] + f[2] * v[1] ** 2
        fy = f[1] * v[0] ** 2 + 2 * f[2] * v[0] * v[1] + 3 * f[3] * v[1] ** 2
        if (fx * r + fy * s) % p == 0:
            return False
    return True


# (s_1, s_2) -> splitting type; the five pairs are distinct
_TYPE_OF_S1_S2 = {(_S1[t], _S2[t]): t for t in _S1}


def _local_cases():
    for f in enumerate_orbits(1000) + enumerate_orbits(2700, True):
        for p in (2, 3, 5, 7):
            yield f, p


def test_maximality_against_superring_oracle_and_p2_sweep():
    # the index-p superring oracle decides maximality only when p does not
    # divide the form; p times a form inert at p has no index-p overring
    multiples = 0
    for f, p in _local_cases():
        got = is_maximal_at_p(f, p)
        assert got == _maximal_by_p2_sweep(f, p), (f, p)
        if gcd(*f) % p == 0:
            assert not got, (f, p)
            multiples += 1
        else:
            assert got == (not superrings_of_index_p(ring_from_form(f), p)), (f, p)
    assert multiples > 0
    assert not superrings_of_index_p(ring_from_form((2, 0, 2, 2)), 2)
    assert not is_maximal_at_p((2, 0, 2, 2), 2)


def test_splitting_type_against_subring_counts():
    seen = set()
    for f, p in _local_cases():
        if not is_maximal_at_p(f, p):
            continue
        C = ring_from_form(f)
        s1 = len(subrings_of_index(C, p))
        s2 = len(subrings_of_index(C, p * p))
        assert splitting_type(f, p) == _TYPE_OF_S1_S2[s1, s2], (f, p)
        seen.add(_TYPE_OF_S1_S2[s1, s2])
    assert seen == set(_S1)


def test_local_type_invariants_survive_optimize():
    # impossible root patterns raise InvariantError, also under -O: at
    # p | disc (x^3 - 2 at 2, one triple root) four roots, or roots with no
    # multiple one among them; at p not dividing disc (Z^3 at 2) two roots
    code = (
        "from cubicount import forms, rings\n"
        "def check(name, roots, form):\n"
        "    rings.roots_in_p1 = lambda f, p: roots\n"
        "    try:\n"
        "        rings.splitting_type(form, 2)\n"
        "    except forms.InvariantError:\n"
        "        print(name)\n"
        "check('four-roots', [(0, 1), (1, 0), (1, 1), (1, 1)], (1, 0, 0, -2))\n"
        "check('no-multiple-root', [(1, 1)], (1, 0, 0, -2))\n"
        "check('two-simple-roots', [(0, 1), (1, 0)], (0, 1, 1, 0))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.split() == ["four-roots", "no-multiple-root", "two-simple-roots"], out.stderr
    assert disc((1, 0, 0, -2)) % 2 == 0 and disc((0, 1, 1, 0)) % 2
    assert splitting_type((1, 0, 0, -2), 2) == "1^3" and splitting_type((0, 1, 1, 0), 2) == "111"


# sorted root multiplicities mod p -> splitting type
_TYPE_OF_MULTS = {(1, 1, 1): "111", (1,): "12", (): "3", (2, 1): "1^2 1", (3,): "1^3"}


def _local_type_by_root_walk(f, p):
    """Reference: move each root mod p to [1:0] by a unimodular matrix;
    its multiplicity is the number of leading coefficients of the moved
    form that p divides, and a multiple root with p^2 | f(v) makes the
    form non-maximal.  None when not maximal at p."""
    if gcd(*f) % p == 0:
        return None
    mults = []
    for v in roots_in_p1(f, p):
        _, x, y = xgcd(*v)
        moved = act(v + (-y, x), f)  # v moved to [1:0]
        m = next(i for i, c in enumerate(moved) if c % p)
        if m > 1 and moved[0] % (p * p) == 0:
            return None
        mults.append(m)
    return _TYPE_OF_MULTS[tuple(sorted(mults, reverse=True))]


def _random_forms(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = tuple(rng.randint(-9, 9) for _ in range(4))
        if disc(f):
            out.append(f)
    return out


def test_local_type_matches_root_walk():
    cases = list(_local_cases()) + [(f, p) for f in _random_forms(41, 1500) for p in (2, 3, 5, 7)]
    seen = set()
    for f, p in cases:
        want = _local_type_by_root_walk(f, p)
        assert rings._local_type(f, p) == want, (f, p)
        assert is_maximal_at_p(f, p) == (want is not None), (f, p)
        if want is not None:
            assert splitting_type(f, p) == want, (f, p)
        seen.add(want)
    assert seen == set(_S1) | {None}


@pytest.mark.parametrize("p", [4, 6, 9, 1, 0, -2, -3])
def test_local_functions_reject_non_prime(p):
    for fn in (is_maximal_at_p, splitting_type):
        with pytest.raises(ValueError, match="not a prime"):
            fn((1, 0, -1, 1), p)


# ---------------------------------------------------------------------------
# splitting types


def test_splitting_type_examples():
    assert splitting_type(Z3, 2) == "111"
    assert splitting_type(T3M1, 5) == "12"
    assert splitting_type(T3M1, 7) == "111"


def test_splitting_type_rejects_non_maximal():
    with pytest.raises(ValueError):
        splitting_type(T3M1, 3)


def test_splitting_root_count_matches_s1():
    rng = random.Random(12)
    checked = 0
    while checked < 60:
        f = tuple(rng.randint(-6, 6) for _ in range(4))
        if disc(f) == 0:
            continue
        p = rng.choice([2, 3, 5])
        if not is_maximal_at_p(f, p):
            continue
        st = splitting_type(f, p)
        assert len(roots_in_p1(f, p)) == _S1[st]
        checked += 1


# ---------------------------------------------------------------------------
# subring enumeration


def test_subrings_trivial_index():
    C = ring_from_form(Z3)
    assert len(subrings_of_index(C, 1)) == 1


def test_subring_counts_of_z3():
    C = ring_from_form(Z3)
    assert len(subrings_of_index(C, 2)) == 3
    assert len(subrings_of_index(C, 4)) == 4
    assert len(subrings_of_index(C, 6)) == 9


def test_subring_counts_multiplicative():
    rng = random.Random(13)
    checked = 0
    while checked < 15:
        f = tuple(rng.randint(-4, 4) for _ in range(4))
        if disc(f) == 0:
            continue
        C = ring_from_form(f)
        n6 = len(subrings_of_index(C, 6))
        n2 = len(subrings_of_index(C, 2))
        n3 = len(subrings_of_index(C, 3))
        assert n6 == n2 * n3
        checked += 1


def test_subrings_are_rings_with_scaled_disc():
    C = ring_from_form((1, 0, -1, 1))
    for n in (2, 3, 4):
        for basis in subrings_of_index(C, n):
            S = lattice_ring(C, basis)
            assert is_associative(S)
            assert S.discriminant == n * n * C.discriminant


def test_subring_index_budget():
    C = ring_from_form(Z3)
    assert rings.MAX_SUBRING_INDEX == 1000
    assert subrings_of_index(C, rings.MAX_SUBRING_INDEX)
    with pytest.raises(BudgetExceeded):
        subrings_of_index(C, rings.MAX_SUBRING_INDEX + 1)


def test_subrings_depend_on_the_form_mod_n():
    # F and F + n G have the same index-n subrings; the reference tries
    # every lattice of F + n G, so this checks the residue argument the
    # memo rests on, not the memo against itself
    rng = random.Random(27)
    pairs = 0
    while pairs < 12:
        f = tuple(rng.randint(-9, 9) for _ in range(4))
        g = tuple(rng.randint(-9, 9) for _ in range(4))
        if disc(f) == 0:
            continue
        pairs += 1
        for n in list(range(1, 61)) + [125, 720]:
            h = tuple(x + n * y for x, y in zip(f, g))
            if disc(h) == 0:
                continue
            want = subrings_of_index(ring_from_form(f), n)
            assert subrings_of_index(ring_from_form(h), n) == want, (f, g, n)
            assert _subrings_by_product_checks(ring_from_form(h), n) == want, (f, g, n)


def test_subring_lists_are_fresh():
    # the memo hands out a new list each call: mutating one leaves the
    # next call's result as it was
    C = ring_from_form(Z3)
    want = _subrings_by_product_checks(C, 6)
    first = subrings_of_index(C, 6)
    assert first == want and len(want) == 9
    first.append("x")
    first[0] = None
    del first[1]
    again = subrings_of_index(C, 6)
    assert again == want
    assert again is not subrings_of_index(C, 6)


def test_subring_checks_run_before_the_memo():
    # (0, 0, 1, 0) is degenerate and agrees mod 2 with (0, 2, 1, 0), whose
    # residue is cached first; the budget and the sign of n are checked
    # with a cached residue too
    C = ring_from_form((0, 2, 1, 0))
    assert subrings_of_index(C, 2) == _subrings_by_product_checks(C, 2)
    with pytest.raises(ValueError, match="degenerate"):
        subrings_of_index(ring_from_form((0, 0, 1, 0)), 2)
    with pytest.raises(BudgetExceeded):
        subrings_of_index(C, 1001)
    with pytest.raises(ValueError, match="positive"):
        subrings_of_index(C, 0)


def _subrings_by_generic_closure(ring, n):
    """Every triangular basis of index n whose generator products pass the
    generic membership test, in the order subrings_of_index lists them."""
    out = []
    for e in (k for k in range(1, n + 1) if n % k == 0):
        g = n // e
        for f in range(g):
            basis = ((1, 0, 0), (0, e, f), (0, 0, g))
            tri = [list(v) for v in basis]
            gens = basis[1:]
            if all(
                sublattice_members(tri, ring.mul(u, v))
                for i, u in enumerate(gens)
                for v in gens[i:]
            ):
                out.append(basis)
    return out


def _subrings_by_product_checks(ring, n):
    """Reference: every triangular basis Z*1 + Z*u + Z*v, u = e*alpha +
    f*beta, v = g*beta, tried one by one; it is a ring iff the (alpha,
    beta) parts (x1, x2) of u*u, u*v and v*v lie in Z*u + Z*v, that is
    iff e | x1 and g | x2 - (x1/e)*f."""
    a, b, c, d = ring.form
    out = []
    for e in (k for k in range(1, n + 1) if n % k == 0):
        g = n // e
        for f in range(g):
            products = (
                (-b * e * e - d * f * f, a * e * e + c * f * f),  # u*u
                (-d * f * g, c * f * g),  # u*v
                (-d * g * g, c * g * g),  # v*v
            )
            if all(x1 % e == 0 and (x2 - x1 // e * f) % g == 0 for x1, x2 in products):
                out.append(((1, 0, 0), (0, e, f), (0, 0, g)))
    return out


def test_subrings_match_product_checks():
    composite = (6, 12, 30, 60, 720)
    for f in enumerate_orbits(1000) + enumerate_orbits(2700, True) + _random_forms(42, 300):
        C = ring_from_form(f)
        for n in sorted({p ** k for p in (2, 3, 5, 7) for k in range(4)}) + list(composite):
            assert subrings_of_index(C, n) == _subrings_by_product_checks(C, n), (f, n)


def test_closed_form_subrings_match_generic_closure():
    rng = random.Random(40)
    pool = [Z3, T3M1, (1, 0, -7, 6), (0, 1, -1, 3), (0, 2, -1, -1)]
    while len(pool) < 30:
        f = tuple(rng.randint(-6, 6) for _ in range(4))
        if len(pool) % 3 == 0:
            f = (0,) + f[1:]
        if disc(f) != 0 and f not in pool:
            pool.append(f)
    assert sum(f[0] == 0 for f in pool) >= 8
    assert sum(f[0] != 0 and not is_irreducible(f) for f in pool) >= 3
    for f in pool:
        C = ring_from_form(f)
        for n in range(1, 41):
            assert subrings_of_index(C, n) == _subrings_by_generic_closure(C, n), (f, n)


def test_subring_lists_match_digest():
    # sha256 of the subring lists, taken with the generic closure test
    h = hashlib.sha256()
    lines = 0
    for f in enumerate_orbits(300):
        for m in (2, 3, 4, 5, 6, 8, 9, 12, 25, 27):
            h.update(("%s %d %r\n" % (tuple(f), m, subrings_of_index(ring_from_form(f), m))).encode())
            lines += 1
    assert lines == 4270
    assert h.hexdigest() == "2ce63b0e6098900ba7e128486541f60c6d1160081fb41fb8b5dcf0062ab6621e"
