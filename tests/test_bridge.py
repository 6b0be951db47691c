import hashlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from cubicount.bridge import (
    SelfBalancedTriple,
    _character_sum,
    check_fields_pic,
    check_prop_3notdiv,
    check_scholz,
    extract_triple,
    gamma_cube,
    has_cubefree_conductor,
    int_lattice,
    k2_mul,
    lhs_count,
    lhs_identity_check,
    rhs_count,
    rhs_identity_check,
    splitting_type_from_char,
    triple_to_J,
    weight_eta,
    weight_w,
)
from cubicount.counting import h_value, orbit_table
from cubicount.forms import InvariantError, hessian, is_zmat
from cubicount.quad import (
    divisors,
    extend_ideal,
    factorize,
    fundamental_part,
    ideals_of_norm,
    in_discs,
    mu3_characters,
    pic_3_torsion,
    picard_group,
    primitive_char,
)
from reference import (
    chi_term_sum,
    extract_triple_by_ring,
    fraction_hnf,
    is_cube_class,
    is_irreducible,
    k2_norm,
    kronecker,
    lat_contains,
    lat_mul,
    lat_norm,
    lat_scale,
    order_change_map,
    proper_stabilizer_order,
    triples_equivalent,
)

T3M1 = (1, 0, 0, -1)


def test_weights():
    assert weight_w(1) == 3 and weight_w(4) == 3 and weight_w(5) == 1
    assert weight_eta(5) == Fraction(1, 3) and weight_eta(-3) == 1


# ---------------------------------------------------------------------------
# triple extraction


def test_extract_triple_t3m1():
    t = extract_triple(T3M1, 1)
    assert t.D == 1
    assert abs(t.t) == 1 and t.u == 0 and abs(t.e) == 2
    # N(gamma) = t^3 under the orientation normalization; the balance
    # conditions |N(gamma)| N(I)^3 = 1 and gamma I^3 in O hold exactly
    assert k2_norm(t.D, t.gamma) == Fraction(t.t) ** 3
    assert t.norm_condition() and t.containment_condition()
    assert lat_norm(t.I) == 1


def test_extract_triple_rejects_non_zmat():
    with pytest.raises(ValueError):
        extract_triple((1, 1, 0, 0), 1)


def test_extract_triple_rejects_degenerate():
    with pytest.raises(ValueError):
        extract_triple((0, 0, 0, 0), 1)


def test_triple_invariants_on_enumerated_rings():
    table = orbit_table(27 * 20, zmat_only=True)
    count = 0
    for D in sorted(table):
        for orb in table[D]:
            for sign in (1, -1):
                t = extract_triple(orb.form, sign)
                assert t.norm_condition()
                assert t.containment_condition()
                assert (t.s - t.D) % 2 == 0
                Dp, g, J = triple_to_J(t)
                assert J.norm == g
                assert is_cube_class(J)
                count += 1
    assert count >= 20


def test_two_alphas_give_equivalent_triples():
    for form in [T3M1, (2, 3, 3, 1), (1, 3, -3, 2)]:
        t1 = extract_triple(form, 1)
        t2, sqrt_num2 = extract_triple_by_ring(form, 1, skip=3)
        assert t1.alpha != t2.alpha
        lam = triples_equivalent(t1, t2, sqrt_num2)
        assert lam is not None


def test_closed_form_triples_match_ring_arithmetic():
    # every field, I and gamma I^3 included, equals the triple the ring
    # arithmetic oracle extracts, at every oriented trace-divisible ring
    # with |disc| <= 54000
    table = orbit_table(54000, True)
    count = 0
    for D in sorted(table):
        for orb in table[D]:
            for sign in (1, -1):
                want, _ = extract_triple_by_ring(orb.form, sign)
                assert extract_triple(orb.form, sign) == want, (orb.form, sign)
                count += 1
    assert count == 9528


def test_extract_triple_rejects_bad_orientation():
    for orientation in (0, 2):
        with pytest.raises(ValueError, match="orientation"):
            extract_triple(T3M1, orientation)


def _gamma_cube_by_products(trip):
    """Reference: gamma * (I * I * I) through the generic lattice product."""
    return lat_scale(lat_mul(lat_mul(trip.I, trip.I), trip.I), trip.gamma)


def test_gamma_cube_matches_lattice_products():
    table = orbit_table(20000, zmat_only=True)
    count = 0
    for D in sorted(table):
        for orb in table[D]:
            for sign in (1, -1):
                t = extract_triple(orb.form, sign)
                assert t.gamma_I3 == _gamma_cube_by_products(t), (orb.form, sign)
                count += 1
    assert count > 3000


def test_gamma_cube_needs_one_in_I():
    t = extract_triple(T3M1, 1)
    I = t.I
    for bad in (I._replace(a=2 * I.a, b=I.b % (2 * I.a)), I._replace(den=2 * I.den)):
        with pytest.raises(InvariantError):
            gamma_cube(bad, t.u, t.e)


def test_triple_content_vs_hessian():
    # the Hessian of the form is 9 g times a primitive quadratic in the
    # class of the attached (t, s, r) triple
    table = orbit_table(27 * 15, zmat_only=True)
    for D in sorted(table):
        for orb in table[D]:
            t = extract_triple(orb.form, 1)
            h = hessian(orb.form)
            assert h.content == 9 * t.content


def test_oriented_automorphism_iff_eisenstein_multiplier():
    # a nontrivial orientation-preserving automorphism exists exactly when
    # the triple lives over the Eisenstein order: D / content^2 = -3
    table = orbit_table(27 * 40, zmat_only=True)
    for D in sorted(table):
        for orb in table[D]:
            t = extract_triple(orb.form, 1)
            has_rot = proper_stabilizer_order(orb) == 3
            assert has_rot == (t.D // (t.content ** 2) == -3), orb


def test_triples_match_digest():
    # sha256 of every extracted triple and its J over |disc| <= 2700, taken
    # with Fraction lattice arithmetic
    table = orbit_table(2700, True)
    h = hashlib.sha256()
    lines = 0
    for D in sorted(table):
        for orb in table[D]:
            for sign in (1, -1):
                t = extract_triple(orb.form, sign)
                Dp, g, J = triple_to_J(t)
                h.update((
                    "%s %+d %d %d %d %d %d %d %s %s %s %s %d %d %s\n" % (
                        tuple(orb.form), sign, t.D, t.t, t.s, t.r, t.u, t.e, tuple(t.alpha),
                        Fraction(t.gamma[0]), Fraction(t.gamma[1]), lat_norm(t.I), Dp, g, J,
                    )
                ).encode())
                lines += 1
    assert lines == 390
    assert h.hexdigest() == "be895f3760a9cc721d6fe30649d13f2f02cab15a8946909cac692a937229b7b4"


def test_triple_checks_survive_optimize():
    code = (
        "from cubicount import bridge, forms\n"
        "bridge.lat_subset_order = lambda L: False\n"
        "try:\n"
        "    bridge.extract_triple((1, 0, 0, -1), 1)\n"
        "except forms.InvariantError:\n"
        "    print('raised')\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "raised", out.stderr


def test_non_integral_gamma_cube_raises_under_optimize():
    # J is read off the stored gamma I^3; a lattice outside the order must
    # raise InvariantError from triple_to_J, also under -O
    code = (
        "from cubicount import bridge, forms\n"
        "t = bridge.extract_triple((1, 0, 0, -1), 1)\n"
        "L = t.gamma_I3\n"
        "bad = t._replace(gamma_I3=L._replace(den=7 * L.den))\n"
        "assert bridge.triple_to_J(t)\n"
        "try:\n"
        "    bridge.triple_to_J(bad)\n"
        "except forms.InvariantError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "J must be integral over the multiplier order", out.stderr


def test_bridge_fault_raises_invariant_error_under_optimize():
    # running out of shell points is an internal fault (CLI exit 3), not a
    # failed identity (exit 1), also under -O
    code = (
        "from cubicount import bridge, forms\n"
        "bridge._POINTS = ()\n"
        "try:\n"
        "    bridge.extract_triple((1, 0, 0, -1), 1)\n"
        "except forms.InvariantError:\n"
        "    print('raised')\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "raised", out.stderr


def test_bridge_and_ring_invariants_survive_optimize():
    # each tampered helper breaks one invariant; under -O an assert would
    # let the wrong value through, an InvariantError must still be raised
    code = (
        "from cubicount import bridge, forms, quad, rings\n"
        "import reference\n"
        "def check(name, fn):\n"
        "    try:\n"
        "        fn()\n"
        "    except forms.InvariantError:\n"
        "        print(name)\n"
        "class Chi:\n"
        "    D = -23\n"
        "    def __call__(self, J):\n"
        "        return 1\n"
        "check('chi-sum', lambda: reference.chi_term_sum(Chi(), 2))\n"
        "trivial = quad.mu3_characters(-23)[0]\n"
        "bridge.ideals_of_norm = lambda D, n, invertible_only=False: []\n"
        "check('split-prime', lambda: bridge.splitting_type_from_char(trivial, 2))\n"
        "bridge.pic_3_torsion = lambda D: 2\n"
        "check('pic3-odd', lambda: bridge.check_fields_pic(-23))\n"
        "covariant, xgcd = bridge.cubic_covariant, bridge.xgcd\n"
        "bridge.cubic_covariant = lambda f: (1, 0, 0, 0)\n"
        "check('gamma-norm', lambda: bridge.extract_triple((1, 0, 0, -1)))\n"
        "bridge.cubic_covariant = covariant\n"
        "bridge.xgcd = lambda x, y: (1, 0, 0)\n"
        "check('containment', lambda: bridge.extract_triple((1, 0, 0, -1)))\n"
        "bridge.xgcd = xgcd\n"
        "bridge.disc = lambda f: 28\n"
        "check('disc-27', lambda: bridge.extract_triple((1, 0, 0, -1)))\n"
        "rings._sub_form = lambda form, e, f, g: (0, 3, 3, 0)\n"
        "check('sub-disc', lambda: rings.max_zmat_subring(rings.ring_from_form((1, 0, 0, -1))))\n"
    )
    here = os.path.dirname(__file__)
    src = os.path.join(here, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, here)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.split() == [
        "chi-sum", "split-prime", "pic3-odd", "gamma-norm", "containment",
        "disc-27", "sub-disc",
    ], out.stderr


# ---------------------------------------------------------------------------
# integer lattices against a Fraction reference


def _ref_rows(h):
    x1, x2, y2 = h
    return [(x1, Fraction(0)), (x2, y2)]


def _as_fractions(L):
    return Fraction(L.a, L.den), Fraction(L.b, L.den), Fraction(L.c, L.den)


def _random_lattice(rng, D):
    """An integer lattice over a random denominator, with its Fraction
    generators; retried until the rank is 2."""
    while True:
        den = rng.randint(1, 12)
        vecs = [(rng.randint(-15, 15), rng.randint(-15, 15)) for _ in range(rng.randint(2, 4))]
        if any(x * v - y * u for x, y in vecs for u, v in vecs):
            gens = [(Fraction(x, den), Fraction(y, den)) for x, y in vecs]
            return int_lattice(D, den, vecs), gens


def test_integer_lattices_match_fraction_reference():
    rng = random.Random(7)
    for _ in range(300):
        D = rng.choice((-23, -3, -4, 1, 4, 5, 12, 49, -108))
        L, gens = _random_lattice(rng, D)
        M, _ = _random_lattice(rng, D)
        ref_L = fraction_hnf(gens)
        assert _as_fractions(L) == ref_L
        assert math.gcd(math.gcd(L.den, L.a), math.gcd(L.b, L.c)) == 1
        ref_M = _as_fractions(M)
        prods = [k2_mul(D, u, v) for u in _ref_rows(ref_L) for v in _ref_rows(ref_M)]
        assert _as_fractions(lat_mul(L, M)) == fraction_hnf(prods)
        el = (Fraction(rng.randint(-9, 9), rng.randint(1, 6)), Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        if k2_norm(D, el) != 0:
            scaled = [k2_mul(D, el, v) for v in _ref_rows(ref_L)]
            assert _as_fractions(lat_scale(L, el)) == fraction_hnf(scaled)
        x1, x2, y2 = ref_L
        assert lat_norm(L) == 2 * x1 * y2
        i, j = rng.randint(-5, 5), rng.randint(-5, 5)
        assert lat_contains(L, (i * x1 + j * x2, j * y2))
        k = el[1] / y2
        want = k.denominator == 1 and ((el[0] - k * x2) / x1).denominator == 1
        assert lat_contains(L, el) == want


# ---------------------------------------------------------------------------
# ideal-side count


def test_rhs_delta_1():
    assert rhs_count(1) == 1
    rep = rhs_identity_check(1)
    assert rep["pass"]
    assert rep["rhs"] == 2 * 3 * Fraction(1, 3) * Fraction(1, 2)


def test_rhs_delta_minus23():
    rep = rhs_identity_check(-23)
    assert rep["pass"]
    assert rep["lhs"] == 2 * h_value(-23, "zmat")


def test_rhs_formula_specialization():
    # 3-torsion-free Pic, squarefree discriminant: the count is the single
    # norm-1 ideal with weight 1, so hhat = 1/(2 w eta)
    for D in (-4, 5, -8, 13):
        if pic_3_torsion(D) == 1 and weight_w(D) == 1:
            assert rhs_count(D) == 1
            assert h_value(D, "zmat") == Fraction(1, 2) / weight_eta(D)


def test_rhs_range():
    for D in list(range(-40, 0)) + list(range(1, 41)):
        if D % 4 in (0, 1) and D != 0:
            assert rhs_identity_check(D)["pass"], D


# ---------------------------------------------------------------------------
# character-side count


def test_splitting_type_from_char_examples():
    trivial = mu3_characters(-23)[0]
    assert not any(trivial.values)
    assert splitting_type_from_char(trivial, 23) == "1^2 1"
    assert splitting_type_from_char(trivial, 5) == "12"
    assert splitting_type_from_char(trivial, 2) == "111"  # 2 splits, chi = 1


def test_splitting_type_from_char_nontrivial():
    chars = [c for c in mu3_characters(-23) if any(c.values)]
    # 2 splits in disc -23; its prime ideal generates the class group of
    # order 3, so nontrivial characters do not vanish on it
    for chi in chars:
        assert splitting_type_from_char(chi, 2) == "3"


def test_splitting_type_from_char_ramified_conductor():
    # Pic of disc -4*13^2 is cyclic of order 12; its nontrivial cubic
    # characters are primitive of conductor 13
    chars = [c for c in mu3_characters(-4 * 169) if any(c.values)]
    assert len(chars) == 2
    for chi in chars:
        from cubicount.quad import conductor_of_char

        assert conductor_of_char(chi) == 13
        assert splitting_type_from_char(chi, 13) == "1^3"
        assert splitting_type_from_char(chi, 2) == "1^2 1"


def test_splitting_type_from_char_rejects_a_non_primitive_character():
    # the trivial character on Pic(O_{-92}) factors through Pic(O_{-23})
    trivial = mu3_characters(-92)[0]
    assert not any(trivial.values) and primitive_char(trivial).D == -23
    with pytest.raises(ValueError, match="must be primitive"):
        splitting_type_from_char(trivial, 5)


def test_splitting_type_from_char_matches_kronecker_and_ideal_count():
    # Euler's criterion against the Kronecker symbol and against the number
    # of invertible ideals of norm p, at every primitive cubic character
    # with |D| <= 1500 and every p <= 31; 2 is inert at D0 = 5 mod 8
    ideals = {"111": 2, "3": 2, "12": 0, "1^2 1": 1, "1^3": 0}
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    seen = set()
    for D in range(-1500, 1501):
        if not in_discs(D):
            continue
        D0, d = fundamental_part(D)
        for chi in mu3_characters(D):
            if primitive_char(chi).D != D:
                continue
            for p in primes:
                got = splitting_type_from_char(chi, p)
                if d % p == 0:
                    want = ("1^3",)
                elif D0 % p == 0:
                    want = ("1^2 1",)
                elif kronecker(D0, p) == -1:
                    want = ("12",)
                else:
                    want = ("111", "3")
                assert got in want, (D, chi.values, p)
                assert len(ideals_of_norm(D, p, invertible_only=True)) == ideals[got], (D, p)
                seen.add((p, got))
    assert {(2, t) for t in ideals} <= seen


def test_lhs_delta_1():
    assert lhs_count(1) == 1
    rep = lhs_identity_check(1)
    assert rep["pass"]


def test_lhs_delta_minus23():
    assert lhs_count(-23) == 3
    assert lhs_identity_check(-23)["pass"]


def test_lhs_square_free_with_prime_conductor():
    # D = D0 m^2 with m prime: the sum decomposes per the local table
    for D in (-92, -108, 45, -75):
        rep = lhs_identity_check(D)
        assert rep["pass"], (D, rep)


@pytest.mark.parametrize("D", [-581584, -656700])
def test_lhs_at_conductors_with_far_coprime_norms(D):
    # at -581584 (f = 2) one class has no odd-norm ideal below norm 36349,
    # so a norm scan for conductor-coprime representatives failed there;
    # the extension maps are checked on prime ideals, which do not depend
    # on the representatives
    assert lhs_count(D) == rhs_count(D)
    D0, f = fundamental_part(D)
    Gf = picard_group(D)
    primes = [P for p in range(2, 500) if f % p and factorize(p) == {p: 1}
              for P in ideals_of_norm(D, p, invertible_only=True)]
    assert len(primes) > 50
    for c in divisors(f):
        Dt = D0 * c * c
        Gt = picard_group(Dt)
        m = order_change_map(D0, f, c)
        for P in primes:
            assert m[Gf.class_of(P)] == Gt.class_of(extend_ideal(P, Dt)), (D, c, P)


def test_lhs_rejects_cube_conductor():
    with pytest.raises(ValueError):
        lhs_count(-4 * 8 ** 2)  # conductor 8 = 2^3


def test_lhs_non_cubefree_reported_not_asserted():
    # outside the proved range the sum is computed on request; it agrees
    # with 2 w h at every discriminant |D| <= 3000 whose conductor is not
    # cubefree (49 of them, -2916 = -4 * 27^2 and 729 = 27^2 among them)
    deltas = [D for D in range(-3000, 3001) if in_discs(D) and not has_cubefree_conductor(D)]
    assert len(deltas) == 49 and {-2916, -2187, -256, -192, 320, 576, 729} <= set(deltas)
    for D in deltas:
        total = _character_sum(D)
        assert Fraction(total) == 2 * weight_w(D) * h_value(D), D


def test_chi_term_matches_subring_count():
    # per-character identity: the subring count of index m1 computed from
    # splitting types equals the ideal character sum, prime power by prime
    # power and for small composites
    # covers every column of the local table: split (111 and 3 via the
    # character value), inert (12), ramified (1^2 1), plus composites
    cases = [
        (-23, 1), (-23, 2), (-23, 4), (-23, 3), (-23, 9), (-23, 6),
        (-4, 2), (-4, 4),   # 2 ramifies in disc -4
        (-4, 3), (-4, 9),   # 3 inert in disc -4
        (-4, 5), (-3, 7), (5, 11),
    ]
    from cubicount.counting import factorize, s_sequence
    from cubicount.quad import conductor_of_char, fundamental_part

    for D1, m1 in cases:
        for chi in mu3_characters(D1):
            if conductor_of_char(chi) != fundamental_part(D1)[1]:
                continue  # the local identity applies to primitive characters
            lhs = 1
            for p, v in factorize(m1).items():
                lhs *= s_sequence(splitting_type_from_char(chi, p), p, v)
            rhs = chi_term_sum(chi, m1)
            assert lhs == rhs, (D1, m1, chi.values)


# ---------------------------------------------------------------------------
# corollary checks


def test_fields_pic_examples():
    assert check_fields_pic(-23)["pass"]
    assert check_fields_pic(-4)["pass"]
    assert check_fields_pic(1)["pass"]
    assert check_fields_pic(-23)["lhs"] == 1
    assert check_fields_pic(1)["lhs"] == 0


def test_fields_pic_range():
    for D in range(-60, 61):
        if D != 0 and D % 4 in (0, 1):
            assert check_fields_pic(D)["pass"], D


def test_irreducibility():
    assert is_irreducible((1, 0, -1, 1))
    assert not is_irreducible((0, 1, 1, 0))
    assert not is_irreducible((1, 0, 0, -1))  # t = 1 is a root


def test_prop6_examples():
    assert check_prop_3notdiv(5)["pass"]
    assert check_prop_3notdiv(-4)["pass"]
    with pytest.raises(ValueError):
        check_prop_3notdiv(9)


def test_prop6_range():
    for D in (1, -4, 5, -7, 8, -8, 13, -11, 16, 17, 20, -20, -23):
        assert check_prop_3notdiv(D)["pass"], D


def test_scholz_examples():
    rep = check_scholz(-23)
    assert rep["pass"] and rep["lhs"] == Fraction(1, 3)
    assert check_scholz(5)["pass"]
    assert check_scholz(-4)["pass"]
    with pytest.raises(ValueError):
        check_scholz(12 * 4)
    with pytest.raises(ValueError):
        check_scholz(1)


def test_scholz_range():
    from cubicount.quad import is_fundamental

    for D in range(-60, 61):
        if D != 1 and is_fundamental(D):
            assert check_scholz(D)["pass"], D
