import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from cubicount import counting
from cubicount.bridge import check_fields_pic, weight_w
from cubicount.cli import main
from cubicount.counting import (
    _cut,
    _icbrt,
    _scan_neg,
    _scan_pos,
    box_orbits,
    box_reduced_forms,
    check_recursion,
    class_numbers,
    enumerate_orbits,
    h_value,
    in_discs,
    orbit_table,
    s_closed_form,
    s_sequence,
    sixths_table,
    subring_count,
    zeta_coefficients,
)
from cubicount.forms import (
    BOUNDARY_MATRICES,
    BudgetExceeded,
    InvariantError,
    UnimodularMatrix,
    act,
    boundary_signature,
    canonicalize,
    disc,
    is_zmat,
    reduced_orbit,
    reduced_stabilizer_order,
)
from cubicount.rings import ring_from_form, splitting_type, subrings_of_index
from reference import is_field_form, proper_stabilizer_order, scan_forms, scan_neg_filtered, scan_pos_filtered


def test_enumerate_x1():
    forms = enumerate_orbits(1)
    assert len(forms) == 1
    assert disc(forms[0]) == 1
    assert canonicalize((0, 1, 1, 0)) == forms[0]


def test_enumerate_zmat_27_contains_t3_minus_1():
    forms = enumerate_orbits(27, zmat_only=True)
    assert canonicalize((1, 0, 0, -1)) in forms
    assert all(is_zmat(f) for f in forms)


def test_enumerate_no_duplicates_and_canonical():
    forms = enumerate_orbits(150)
    assert len(forms) == len(set(forms))
    for f in forms[:50]:
        assert canonicalize(f) == f


def test_enumeration_matches_box_oracle():
    X = 60
    table = orbit_table(X)
    box = {D: len(orbits) for D, orbits in box_orbits(X).items()}
    assert set(table) == set(box)
    for D in box:
        assert len(table[D]) == box[D], D


def test_enumeration_matches_box_oracle_200():
    # the slow dual-method check at the full documented range
    X = 200
    table = orbit_table(X)
    box = {D: len(orbits) for D, orbits in box_orbits(X).items()}
    assert set(table) == set(box)
    for D in box:
        assert len(table[D]) == box[D], D


def test_orbit_table_is_fresh_per_call():
    # every call builds its own dict, so mutating one leaves the next
    # call's table as the first was; the Orbit entries are immutable
    X = 120
    table = orbit_table(X)
    before = dict(table)
    D = next(iter(table))
    with pytest.raises(AttributeError):
        table[D].append(table[D][0])
    with pytest.raises(AttributeError):
        table[D][0].stabilizer_order = 6
    table[D] = ()
    del table[-23]
    again = orbit_table(X)
    assert again is not table and again == before
    assert h_value(-23) == Fraction(3, 2)


@pytest.mark.parametrize(
    "X, zmat, lines, sha",
    [
        (3000, False, 4804, "e0ab59f22c3386b931c4e3889bbaa5cf79ed0e200f15c0d4083e7b892f34938f"),
        (54000, True, 4764, "deb280110f2a530508f6abb3bc6d87f9ec0f8cb2ea8a6127ec68f75425d709f8"),
    ],
)
def test_orbit_table_digest(X, zmat, lines, sha):
    # taken from the scan that still yielded two sign variants per form
    # and kept the largest; every representative and stabilizer must stay
    table = orbit_table(X, zmat)
    text = [
        "%d %s %d %d\n" % (D, o.form, o.stabilizer_order, proper_stabilizer_order(o))
        for D in sorted(table)
        for o in table[D]
    ]
    assert len(text) == lines
    assert hashlib.sha256("".join(text).encode()).hexdigest() == sha


def _sign_variants(f):
    a, b, c, d = f
    return ((a, b, c, d), (-a, -b, -c, -d), (-a, b, -c, d), (a, -b, c, -d))


@pytest.mark.parametrize("X, zmat", [(120, False), (27 * 13, True)])
def test_scans_match_brute_force(X, zmat):
    # each scan yields, once each, exactly the reduced forms of its disc
    # sign in a coefficient box that are the largest of their sign variants
    want = {1: set(), -1: set()}
    for D, f in box_reduced_forms(X, zmat):
        if f == max(_sign_variants(f)):
            want[1 if D > 0 else -1].add(f)
    assert want[1] and want[-1]
    for sign, scan in ((1, _scan_pos), (-1, _scan_neg)):
        got = list(scan_forms(scan, X, zmat))
        assert len(got) == len(set(got))
        assert set(got) == want[sign]


@pytest.mark.parametrize(
    "X, zmat", [(2000, False), (20000, False), (54000, True), (540000, True)]
)
def test_scan_neg_window_matches_box(X, zmat):
    # the (b, c) window for a >= 1 drops no form the earlier box yielded,
    # and the forms come out in the same order
    assert [f for f in scan_forms(_scan_neg, X, zmat) if f[0]] == [
        f for f in scan_neg_filtered(X, zmat, box=True) if f[0]]


@pytest.mark.parametrize("zmat, bounds", [
    (False, list(range(401)) + [20000]),
    (True, list(range(0, 8101, 27)) + [540000]),
])
def test_scans_match_the_per_d_filters(zmat, bounds):
    # the exact d-intervals yield the forms the per-d filters keep, in the
    # same order
    for X in bounds:
        assert list(scan_forms(_scan_pos, X, zmat)) == list(scan_pos_filtered(X, zmat)), X
        assert list(scan_forms(_scan_neg, X, zmat)) == list(scan_neg_filtered(X, zmat)), X


def test_cut_matches_brute_force():
    # _cut drops exactly the d with (m d - k)^2 < r and keeps the rest in
    # order, for empty, non-positive and perfect-square r and empty spans
    span_sets = ([(-12, 12)], [(-12, -4), (-1, 2), (5, 13)], [(3, 1)], [(0, 0), (2, 1), (4, 9)], [])
    for m in range(1, 6):
        for k in range(-9, 10):
            for r in range(-3, 50):
                for spans in span_sets:
                    got = [d for lo, hi in _cut(spans, m, k, r) for d in range(lo, hi + 1)]
                    want = [d for lo, hi in spans for d in range(lo, hi + 1) if (m * d - k) ** 2 >= r]
                    assert got == want, (spans, m, k, r)


@pytest.mark.parametrize("call", [
    lambda: class_numbers(-1),
    lambda: sixths_table(-1),
    lambda: orbit_table(-5),
    lambda: zeta_coefficients(-2),
    lambda: enumerate_orbits(-1),
    lambda: list(box_reduced_forms(-1)),
], ids=["class_numbers", "sixths_table", "orbit_table", "zeta_coefficients", "enumerate_orbits",
        "box_reduced_forms"])
def test_negative_bound_is_rejected(call):
    with pytest.raises(ValueError, match="X must be >= 0, got -"):
        call()


def test_a0_edge_forms_are_kept_with_stabilizer_2():
    # orbit_table gives a = 0 forms on the line Re = 0 (c = 0, whose entry
    # has the four sign matrices only) or the edge Re = -1/2, off the arc,
    # Orbit(f, 2) without reduced_orbit, and their proper stabilizer is
    # trivial; the arc forms with c in {0, b} have other data and stay
    # outside the rule.  The proper stabilizer order counts the det 1
    # matrices of the table entry that fix f (the table is checked against
    # the breadth-first closure in test_forms)
    edges = arcs = 0
    arc_data = set()
    for X, zmat in ((20000, False), (540000, True)):
        for scan in (_scan_pos, _scan_neg):
            for f in scan_forms(scan, X, zmat):
                if f[0] != 0:
                    continue
                sig = boundary_signature(f)
                edge = sig == counting._A0_EDGE or sig == (0, False) and f[2] == 0
                if not (edge or sig[1] and f[2] in (0, f[1])):
                    continue
                orbit = reduced_orbit(f)
                proper = sum(g.det == 1 and act(g, f) == f for g in BOUNDARY_MATRICES[sig])
                data = (max(orbit) == f, reduced_stabilizer_order(f, orbit), proper)
                if edge:
                    assert data == (True, 2, 1), f
                    edges += 1
                else:
                    assert data != (True, 2, 1), f
                    arc_data.add((sig, data))
                    arcs += 1
    assert edges > 40000 and arcs > 50
    assert {sig for sig, _ in arc_data} == {(0, True), (-1, True)}
    assert ((-1, True), (True, 6, 3)) in arc_data


def test_orbit_table_rejects_out_of_range_scan(monkeypatch):
    # a scan yielding a form beyond the bound is an invariant breach
    monkeypatch.setattr(counting, "_scan_pos", lambda X, zmat: [(1, 0, -40, 0, 0)])
    with pytest.raises(InvariantError):
        orbit_table(100)


def test_orbit_table_rejects_wrong_boundary_matrix(monkeypatch):
    # a matrix that maps reduced forms off the domain must raise, not
    # silently produce a wrong table
    key = (0, True)
    bad = BOUNDARY_MATRICES[key] + (UnimodularMatrix(1, 0, 2, 1),)
    monkeypatch.setitem(BOUNDARY_MATRICES, key, bad)
    with pytest.raises(InvariantError):
        orbit_table(300)


@pytest.mark.parametrize("zmat", [False, True])
def test_sixths_table_matches_orbit_table_weights(monkeypatch, zmat):
    # the counts path weighs every scanned form by its boundary-table size
    # and the Orbit tables look up each orbit: the same sums at every D
    monkeypatch.setattr(counting, "_SIXTHS_CACHE", {})
    X = 540000 if zmat else 20000
    want = {D: sum(6 // o.stabilizer_order for o in orbs) for D, orbs in orbit_table(X, zmat).items()}
    got = sixths_table(X, "zmat" if zmat else "plain")
    assert dict(got) == want
    assert min(got) < 0 < max(got)


def test_sixths_table_is_read_only_and_cached(monkeypatch):
    monkeypatch.setattr(counting, "_SIXTHS_CACHE", {})
    small = sixths_table(100)
    table = sixths_table(300)
    assert small is not table  # a larger bound builds again
    assert sixths_table(100) is table and sixths_table(300) is table
    with pytest.raises(TypeError):
        table[-23] = 0
    assert dict(small) == {D: n for D, n in table.items() if abs(D) <= 100}
    sixths_table(300, "fields")
    real = counting._build_sixths_table
    calls = []
    monkeypatch.setattr(
        counting, "_build_sixths_table", lambda *args: calls.append(args) or real(*args)
    )
    assert [h_value(D) for D in (1, -23, 49)] == [Fraction(n, 6) for n in (1, 9, 5)]
    assert check_fields_pic(-23)["pass"]
    assert calls == []
    with monkeypatch.context() as m, pytest.raises(BudgetExceeded):
        m.setenv("CUBICOUNT_BUDGET", "10")
        h_value(-23)  # the budget holds on a cached table too
    with monkeypatch.context() as m, pytest.raises(BudgetExceeded):
        m.setenv("CUBICOUNT_BUDGET", "10")
        sixths_table(300)
    # a larger bound rebuilds the table to exactly that bound
    monkeypatch.setattr(counting, "_SIXTHS_CACHE", {})
    sixths_table(100)
    assert dict(sixths_table(150)) == {D: n for D, n in table.items() if abs(D) <= 150}
    assert counting._SIXTHS_CACHE["plain"][0] == 150


def _run_optimized(code):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )


def test_counts_path_stabilizer_check_survives_optimize():
    # a boundary-table size that breaks orbit-stabilizer leaves a weight
    # sum that is not a multiple of 4: class_numbers raises, and verify on
    # exits 3, also under python -O
    out = _run_optimized(
        "from cubicount import counting, forms\n"
        "from cubicount.cli import main\n"
        "forms.BOUNDARY_MATRICES[0, False] += (forms.MAT_ID,)\n"
        "try:\n"
        "    counting.class_numbers(300)\n"
        "except forms.InvariantError:\n"
        "    print('raised')\n"
        "print(main(['verify', 'on', '--max', '300']))\n"
    )
    assert out.stdout.split() == ["raised", "3"], out.stderr
    assert "weights" in out.stderr


def test_orbit_path_stabilizer_check_survives_optimize():
    # a reduced_orbit that drops one form of the orbit leaves |M| / N
    # outside {1, 2, 3, 6} or inexact: enumerate_orbits raises, also under
    # python -O
    out = _run_optimized(
        "from cubicount import counting, forms\n"
        "real = counting.reduced_orbit\n"
        "counting.reduced_orbit = lambda f: frozenset(sorted(real(f))[1:])\n"
        "try:\n"
        "    counting.enumerate_orbits(50)\n"
        "except forms.InvariantError as exc:\n"
        "    print('raised', exc)\n"
    )
    assert out.stdout.split()[0] == "raised", out.stderr
    assert "stabilizer" in out.stdout


def test_field_weight_check_survives_optimize():
    # without the weight w the cyclic field at disc 49 (stabilizer 3)
    # weighs 2/6: verify fields-pic exits 3, also under python -O
    out = _run_optimized(
        "from cubicount import bridge\n"
        "from cubicount.cli import main\n"
        "bridge.weight_w = lambda D: 1\n"
        "print(main(['verify', 'fields-pic', '--D', '49']))\n"
    )
    assert out.stdout.split() == ["3"], out.stderr
    assert "fields at disc 49" in out.stderr


def test_field_filter_check_survives_optimize():
    # the orbit of (1, 0, -3, 0) at disc 108 (stabilizer 2) has two scanned
    # forms of 6/24 each; a field filter that keeps one of them splits the
    # orbit, so its weights sum to 6/24: verify fields-pic exits 3, also
    # under python -O
    out = _run_optimized(
        "from cubicount import counting\n"
        "from cubicount.cli import main\n"
        "counting.is_maximal = lambda f: f == (1, 0, -3, 0)\n"
        "print(main(['verify', 'fields-pic', '--D', '108']))\n"
    )
    assert out.stdout.split() == ["3"], out.stderr
    assert "weights at disc 108" in out.stderr


def test_field_count_invariant_survives_optimize():
    # the fields table holds 6 sixths at -23, its one cubic field; one more
    # is not a whole field: verify fields-pic exits 3 and names the weight,
    # also under python -O
    out = _run_optimized(
        "from cubicount import counting\n"
        "from cubicount.cli import main\n"
        "real = counting._build_sixths_table\n"
        "def tampered(X, kind):\n"
        "    table = real(X, kind)\n"
        "    if kind == 'fields':\n"
        "        print(table[-23])\n"
        "        table[-23] += 1\n"
        "    return table\n"
        "counting._build_sixths_table = tampered\n"
        "print(main(['verify', 'fields-pic', '--D', '-23']))\n"
    )
    assert out.stdout.split() == ["6", "3"], out.stderr
    assert "fields at disc -23 weigh 7/6" in out.stderr


def test_unknown_kind_is_a_value_error(monkeypatch):
    # a kind that names no counts table is refused before the budget check,
    # also off the discriminants and for the old boolean flag
    monkeypatch.setenv("CUBICOUNT_BUDGET", "1")
    for read in (lambda: sixths_table(10, "bogus"), lambda: h_value(-23, "bogus"), lambda: h_value(-2, "bogus")):
        with pytest.raises(ValueError, match="unknown counts table kind 'bogus'"):
            read()
    with pytest.raises(ValueError, match="unknown counts table kind True"):
        sixths_table(10, True)


def test_fields_by_weight_match_the_orbit_table():
    # w(D) times the field sixths at D is six times the number of field
    # orbits at D; the range holds the cyclic (square) discs 49, 81, 169, ...
    X = 30000
    sixths = sixths_table(X, "fields")
    table = orbit_table(X)
    squares = 0
    for D in range(-X, X + 1):
        if D == 0:
            continue
        n = weight_w(D) * sixths.get(D, 0)
        assert n % 6 == 0, D
        assert n // 6 == sum(is_field_form(o.form) for o in table.get(D, ())), D
        squares += n > 0 and weight_w(D) == 3
    assert squares > 20


def test_box_oracle_checks_the_budget(monkeypatch):
    monkeypatch.setenv("CUBICOUNT_BUDGET", "100")
    forms = box_reduced_forms(200)
    with pytest.raises(BudgetExceeded):
        next(forms)  # raised before the first form
    with pytest.raises(BudgetExceeded):
        box_orbits(200)


def test_invariant_checks_survive_optimize():
    out = _run_optimized(
        "from cubicount import counting, forms\n"
        "key = (0, True)\n"
        "forms.BOUNDARY_MATRICES[key] += (forms.UnimodularMatrix(1, 0, 2, 1),)\n"
        "try:\n"
        "    counting.orbit_table(300)\n"
        "except forms.InvariantError:\n"
        "    print('raised')\n"
    )
    assert out.stdout.strip() == "raised", out.stderr


def test_s_sequence_check_survives_optimize():
    out = _run_optimized(
        "from cubicount import counting, forms\n"
        "counting.s_closed_form = lambda sigma, p, n: -1\n"
        "try:\n"
        "    counting.s_sequence('111', 2, 3)\n"
        "except forms.InvariantError:\n"
        "    print('raised')\n"
    )
    assert out.stdout.strip() == "raised", out.stderr


def test_icbrt_is_exact():
    k = 10 ** 25
    assert _icbrt(k ** 3) == k
    assert _icbrt(k ** 3 - 1) == k - 1
    assert _icbrt(0) == 0 and _icbrt(-8) == 0
    r = 0
    for n in range(1, 10 ** 6):
        if (r + 1) ** 3 <= n:
            r += 1
        assert _icbrt(n) == r, n


def test_all_discs_are_discriminants():
    for f in enumerate_orbits(200):
        assert in_discs(disc(f))


def test_class_number_examples():
    assert h_value(1) == Fraction(1, 6)
    assert h_value(1, "zmat") == Fraction(1, 2)
    assert h_value(-23) == Fraction(3, 2)
    assert h_value(-2) == 0  # not a discriminant
    assert h_value(49) == Fraction(5, 6)  # cyclic field + Z x O_49


def test_class_numbers_map():
    cn = class_numbers(30)
    assert cn[1] == (Fraction(1, 6), Fraction(1, 2))
    assert cn[-23][0] == Fraction(3, 2)
    # denominators divide 6
    for D, (h, hh) in cn.items():
        assert 6 % h.denominator == 0 and 6 % hh.denominator == 0


def test_pairing_identity_small_range():
    cn = class_numbers(40)
    for D, (h, hh) in cn.items():
        assert hh == (3 * h if D > 0 else h), D


# ---------------------------------------------------------------------------
# local subring counts


def test_s_table():
    assert s_sequence("111", 2, 1) == 3
    assert s_sequence("111", 2, 2) == 4
    assert s_sequence("3", 5, 1) == 0
    assert s_sequence("111", 2, 3) == 6
    assert s_sequence("1^2 1", 3, 1) == 2
    assert s_sequence("1^3", 7, 0) == 1


def test_s_closed_form_matches_recursion():
    for sigma in ("111", "12", "3", "1^2 1", "1^3"):
        for p in (2, 3, 5, 7):
            for n in range(13):
                assert s_sequence(sigma, p, n) == s_closed_form(sigma, p, n)


def test_s_rejects_bad_input():
    with pytest.raises(ValueError):
        s_sequence("21", 2, 1)
    with pytest.raises(ValueError):
        s_sequence("111", 2, -1)


def test_subring_count_examples():
    z3 = (0, 1, 1, 0)
    assert subring_count(z3, 1) == 1
    assert subring_count(z3, 2) == 3
    assert subring_count(z3, 6) == 9


def test_subring_count_multiplicative():
    f = (1, 0, -1, 1)  # disc -23, maximal
    assert subring_count(f, 6) == subring_count(f, 2) * subring_count(f, 3)
    assert subring_count(f, 12) == subring_count(f, 4) * subring_count(f, 3)


def test_subring_count_rejects_non_maximal():
    with pytest.raises(ValueError):
        subring_count((1, 0, 0, -1), 3)


def test_s_sequence_matches_lattice_oracle():
    rng = random.Random(20)
    checked = 0
    while checked < 12:
        f = tuple(rng.randint(-5, 5) for _ in range(4))
        if disc(f) == 0:
            continue
        p = rng.choice([2, 3])
        from cubicount.rings import is_maximal_at_p

        if not is_maximal_at_p(f, p):
            continue
        sigma = splitting_type(f, p)
        C = ring_from_form(f)
        for k in (1, 2, 3):
            assert len(subrings_of_index(C, p ** k)) == s_sequence(sigma, p, k)
        checked += 1


# ---------------------------------------------------------------------------
# recursions


def test_recursion_d1_p2():
    reports = check_recursion(1, 2)
    assert all(r["pass"] for r in reports)
    hh = [r for r in reports if r["check"] == "recursion-hhat"][0]
    # hhat(64) = hhat(16) + 2 hhat(1)
    assert hh["lhs"] == h_value(64, "zmat")
    assert hh["rhs"] == h_value(16, "zmat") + 2 * h_value(1, "zmat")


def test_recursion_d5_p2():
    reports = check_recursion(5, 2, include_hhat=False)
    (r,) = reports
    assert r["pass"]
    assert r["lhs"] == h_value(320)
    assert r["rhs"] == h_value(80) + 2 * h_value(5)


def test_recursion_builds_one_table_per_variant(monkeypatch):
    # h(p^6 D) is read first, so its table serves the smaller terms
    monkeypatch.setattr(counting, "_SIXTHS_CACHE", {})
    real = counting._build_sixths_table
    calls = []
    monkeypatch.setattr(counting, "_build_sixths_table", lambda *args: calls.append(args) or real(*args))
    assert all(r["pass"] for r in check_recursion(-20, 3))
    assert calls == [(14580, "plain"), (393660, "zmat")]


def test_recursion_zero_convention():
    # D = 5: 5/4 is not an integer, the h(D/p^2) term vanishes
    assert not in_discs(5 // 4) or 5 % 4 != 0
    reports = check_recursion(-4, 2, include_hhat=False)
    assert all(r["pass"] for r in reports)


def test_recursion_rejects_non_disc():
    with pytest.raises(ValueError):
        check_recursion(2, 2)


@pytest.mark.parametrize("p", [4, 1, 0, -2, 9])
def test_recursion_rejects_non_prime(p):
    with pytest.raises(ValueError):
        check_recursion(5, p)


@pytest.mark.parametrize("p", [4, 1, 0, -2, 9])
def test_s_sequence_rejects_non_prime(p):
    # s_sequence("111", 4, 2) used to return 4, and p = 1 divided by zero
    with pytest.raises(ValueError, match="not a prime"):
        s_sequence("111", p, 2)


def test_budget_guard(monkeypatch):
    with pytest.raises(BudgetExceeded):
        orbit_table(10 ** 9)
    monkeypatch.setenv("CUBICOUNT_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        check_recursion(1, 2)


# ---------------------------------------------------------------------------
# zeta coefficients


def test_zeta_tables():
    z = zeta_coefficients(40)
    assert z["zeta_plus"][1] == Fraction(1, 6)
    assert z["zhat_minus"][1] == Fraction(1, 2)
    assert z["zhat_plus"][1] == 0  # no ring of discriminant -1
    for n in range(1, 41):
        assert z["zhat_plus"][n] == z["zeta_minus"][n]
        assert z["zhat_minus"][n] == 3 * z["zeta_plus"][n]


def test_table_csv_shape(capsys):
    assert main(["table", "--max", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "delta,h_num,h_den,hhat_num,hhat_den"
    assert lines[1] == "1,1,6,1,2"
    assert len(lines) == 2
