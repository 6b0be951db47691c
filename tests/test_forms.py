import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from cubicount import forms
from cubicount.counting import _scan_neg, _scan_pos
from cubicount.forms import (
    BOUNDARY_MATRICES,
    BinaryCubicForm,
    MAT_ID,
    MAT_NEG,
    UnimodularMatrix,
    act,
    boundary_signature,
    canonicalize,
    disc,
    hessian,
    is_reduced_neg,
    is_reduced_pos,
    is_zmat,
    mat_mul,
    orbit_closure,
    reduce_form,
    reduced_orbit,
    reduced_stabilizer_order,
    stabilizer_order,
)
from reference import is_reduced, parse_form, random_unimodular, scan_forms, stabilizer_matrices, trace_pairing_disc

coeff = st.integers(min_value=-8, max_value=8)
form_st = st.tuples(coeff, coeff, coeff, coeff)
nondeg_form = form_st.filter(lambda f: disc(f) != 0)
word = st.lists(st.sampled_from("STUN"), min_size=0, max_size=8)

GEN = {
    "S": UnimodularMatrix(0, 1, 1, 0),
    "T": UnimodularMatrix(1, 0, 1, 1),
    "U": UnimodularMatrix(1, 1, 0, 1),
    "N": UnimodularMatrix(-1, 0, 0, -1),
}


def mat_from_word(w):
    g = MAT_ID
    for ch in w:
        g = mat_mul(GEN[ch], g)
    return g


def test_disc_examples():
    assert disc((1, 0, 0, -1)) == -27
    assert disc((0, 0, 0, 0)) == 0
    assert disc((0, 1, 1, 0)) == 1


def test_disc_of_z3_matches_trace_pairing():
    from cubicount.rings import ring_from_form

    assert trace_pairing_disc(ring_from_form((0, 1, 1, 0))) == 1


def test_act_identity_and_swap():
    f = BinaryCubicForm(3, 5, 7, 11)
    assert act(MAT_ID, f) == f
    assert act((0, 1, 1, 0), f) == (-11, -7, -5, -3)


def test_act_rejects_non_unimodular():
    with pytest.raises(ValueError):
        act((2, 0, 0, 1), (1, 0, 0, -1))


@given(word, word, nondeg_form)
def test_action_is_a_group_action(w1, w2, f):
    g1, g2 = mat_from_word(w1), mat_from_word(w2)
    assert act(g2, act(g1, f)) == act(mat_mul(g2, g1), f)


@given(word, form_st)
def test_disc_invariance(w, f):
    assert disc(act(mat_from_word(w), f)) == disc(f)


@given(word, form_st)
def test_zmat_invariance(w, f):
    assert is_zmat(act(mat_from_word(w), f)) == is_zmat(f)


def test_zmat_examples():
    assert is_zmat((1, 3, -3, 2))
    assert not is_zmat((1, 1, 0, 0))


def test_hessian_examples():
    h = hessian((1, 0, 0, -1))
    assert (h.t, h.s, h.r) == (0, 9, 0)
    assert h.content == 9
    h0 = hessian((0, 0, 0, 0))
    assert (h0.t, h0.s, h0.r) == (0, 0, 0)


@given(word, nondeg_form)
def test_hessian_content_invariant(w, f):
    assert hessian(act(mat_from_word(w), f)).content == hessian(f).content


@given(word, form_st)
def test_hessian_covariance(w, f):
    # the Hessian of g.f is the Hessian of f composed with the same
    # substitution (no determinant twist), hence class and content agree
    g = mat_from_word(w)
    p, q, r, s = g
    t0, s0, r0, _ = hessian(f)
    t1, s1, r1, _ = hessian(act(g, f))
    for x, y in ((1, 0), (0, 1), (1, 1), (2, -1)):
        lhs = t1 * x * x + s1 * x * y + r1 * y * y
        u, v = p * x + r * y, q * x + s * y
        rhs = t0 * u * u + s0 * u * v + r0 * v * v
        assert lhs == rhs


@given(word, form_st)
def test_hessian_disc_relation(w, f):
    t, s, r, _ = hessian(f)
    assert s * s - 4 * t * r == -3 * disc(f)


def test_stickelberger():
    rng = random.Random(5)
    for _ in range(2000):
        f = tuple(rng.randint(-9, 9) for _ in range(4))
        D = disc(f)
        if D:
            assert D % 4 in (0, 1)


# ---------------------------------------------------------------------------
# canonicalize


def _with_long_inputs(test):
    # seeded examples with g = random_unimodular(rng, steps=40): large
    # coefficients, which take many reduction steps.  act(g, f) has
    # a = f(p, q), which is 0 for f = (q x - p y) Q(x, y); the irreducible
    # cubics are moved to a < 0.  Q and the cubics give both disc signs
    rng = random.Random(31)

    def long_word():
        g = random_unimodular(rng, steps=40)
        while max(map(abs, g)) < 100:
            g = random_unimodular(rng, steps=40)
        return g

    for u, v, w in ((1, 1, 2), (1, 0, -2)):  # Q of disc -7 and 8
        g = long_word()
        p, q = g.p, g.q
        test = example(g, (q * u, q * v - p * u, q * w - p * v, -p * w))(test)
    for f in ((1, 0, 0, -2), (1, 0, -3, 1)):  # disc -108 and 81
        g = long_word()
        if act(g, f).a > 0:
            g = mat_mul(MAT_NEG, g)
        test = example(g, f)(test)
    return test


@given(word.map(mat_from_word), nondeg_form)
@settings(max_examples=300, deadline=None)
@_with_long_inputs
def test_canonicalize_orbit_invariant(g, f):
    moved = act(g, f)
    r, h = reduce_form(moved)
    assert act(h, moved) == r
    assert abs(h.det) == 1
    assert is_reduced(r)
    assert canonicalize(moved) == canonicalize(f)


@given(nondeg_form)
@settings(deadline=None)
def test_canonicalize_idempotent(f):
    c = canonicalize(f)
    assert canonicalize(c) == c


def test_canonicalize_swap_example():
    f = (1, 0, 0, -1)
    assert canonicalize(f) == canonicalize(act((0, 1, 1, 0), f))


def test_reduction_checks_survive_optimize():
    # reduce_form confirms each verdict of _step with is_reduced_pos or
    # is_reduced_neg, caps the number of steps and refuses a translation by
    # 0: three InvariantErrors, also under python -O
    code = (
        "from cubicount import forms\n"
        "def attempt(f):\n"
        "    try:\n"
        "        forms.reduce_form(f)\n"
        "    except forms.InvariantError as exc:\n"
        "        print(exc)\n"
        "step = forms._step\n"
        "forms._step = lambda f, D: None\n"
        "attempt((0, 1, 5, 1))\n"
        "forms._step = lambda f, D: forms.MAT_SWAP\n"
        "attempt((1, 0, -1, 1))\n"
        "forms._step = step\n"
        "forms._round_re_w = lambda f: 0\n"
        "attempt((1, 15, 77, 136))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.splitlines() == [
        "reduction of (0, 1, 5, 1) stopped at unreduced (0, 1, 5, 1)",
        "reduction did not terminate for (1, 0, -1, 1)",
        "translation of (1, 15, 77, 136) by 0",
    ], out.stderr


def test_canonicalize_rejects_degenerate():
    with pytest.raises(ValueError):
        canonicalize((0, 0, 0, 0))
    with pytest.raises(ValueError):
        canonicalize((1, 3, 3, 1))  # disc 0


def test_canonicalize_separates_inequivalent_classes():
    # independent pairwise check on a small sample: forms with equal
    # canonical representative must be connected by some unimodular matrix
    rng = random.Random(11)
    sample = []
    while len(sample) < 40:
        f = tuple(rng.randint(-4, 4) for _ in range(4))
        if disc(f) != 0:
            sample.append(f)
    matrices = _all_matrices(3)
    for i, f in enumerate(sample):
        for g in sample[i + 1 :]:
            same_rep = canonicalize(f) == canonicalize(g)
            connected = any(act(m, f) == tuple(g) for m in matrices)
            if same_rep:
                # equivalence must be witnessed within a generous bound,
                # via the reduced forms of both
                assert canonicalize(g) in forms.orbit_closure(
                    forms.reduce_form(f)[0]
                ).forms
            if connected:
                assert same_rep


def _all_matrices(bound):
    out = []
    rng = range(-bound, bound + 1)
    for p in rng:
        for q in rng:
            for r in rng:
                for s in rng:
                    if abs(p * s - q * r) == 1:
                        out.append((p, q, r, s))
    return out


# ---------------------------------------------------------------------------
# stabilizers


def test_stabilizer_examples():
    assert stabilizer_order((0, 1, 1, 0)) == 6
    assert stabilizer_order((1, 0, 0, -1)) == 2
    assert stabilizer_order((1, 0, -1, 1)) == 1  # disc -23 field form
    assert stabilizer_order((1, 1, -2, -1)) == 3  # cyclic cubic, disc 49


def test_stabilizer_matches_bounded_matrix_search():
    # sanity sweep with a larger entry bound than the closure uses
    matrices = _all_matrices(3)
    for f in [(0, 1, 1, 0), (1, 0, 0, -1), (1, 0, -1, 1), (1, 1, -2, -1), (0, 1, 0, 1)]:
        found = sum(1 for m in matrices if act(m, f) == tuple(f))
        assert stabilizer_order(f) == found


def test_stabilizer_is_a_group():
    for f in [(0, 1, 1, 0), (1, 0, 0, -1), (1, 1, -2, -1)]:
        mats = stabilizer_matrices(f)
        assert MAT_ID in mats
        for m1 in mats:
            assert act(m1, f) == tuple(f)
            for m2 in mats:
                assert mat_mul(m1, m2) in mats


@given(nondeg_form)
@settings(max_examples=150, deadline=None)
def test_stabilizer_order_divides_six(f):
    assert 6 % stabilizer_order(f) == 0


# ---------------------------------------------------------------------------
# boundary-matrix table against the breadth-first orbit closure


def _scanned_forms():
    # the scans yield one form per sign class; all four sign variants are
    # reduced, and each is checked
    for X, zmat in ((3000, False), (27 * 200, True)):
        for scan in (_scan_pos, _scan_neg):
            for a, b, c, d in scan_forms(scan, X, zmat):
                yield from {(a, b, c, d), (-a, -b, -c, -d), (-a, b, -c, d), (a, -b, c, -d)}


def _assert_table_matches_bfs(f):
    # the table's matrices and images are the closure's, and |M| / N is
    # the closure's stabilizer order
    bfs = orbit_closure(f)
    table = {g: act(g, f) for g in BOUNDARY_MATRICES[boundary_signature(f)]}
    assert table == bfs.matrices, f
    orbit = reduced_orbit(f)
    assert orbit == bfs.forms, f
    assert reduced_stabilizer_order(f, orbit) == bfs.stabilizer_order, f


def _on_re0(f):
    # the point lies on the line Re = 0, which adds no matrix to the table
    # but holds every form equal to one of its sign variants
    a, b, c, d = f
    if disc(f) > 0:
        return b * c == 9 * a * d  # the Hessian's middle coefficient is 0
    if a == 0:
        return c == 0
    return a * d == b * c  # Re w = 0 exactly when f(-b, a) = a^2 (ad - bc) = 0


def test_boundary_table_matches_orbit_closure():
    # every boundary form of both scans, every interior one on the line
    # Re = 0, and every 40th other interior one
    seen = set()
    interior = 0
    for f in _scanned_forms():
        sig = boundary_signature(f)
        seen.add(sig)
        if sig == (0, False) and not _on_re0(f):
            interior += 1
            if interior % 40:
                continue
        _assert_table_matches_bfs(f)
    # all five boundary signatures occur, plus the interior
    assert seen == set(BOUNDARY_MATRICES)
    assert len(seen - {(0, False)}) == 5


def test_boundary_matrices_are_sign_blocks():
    # reduced_orbit acts once per block of four and writes the other three
    # images as sign variants, which holds only if block element j is
    # _SIGNS[j] times the first
    for key, mats in BOUNDARY_MATRICES.items():
        assert len(mats) % 4 == 0, key
        for i in range(0, len(mats), 4):
            for j in range(4):
                assert mats[i + j] == mat_mul(forms._SIGNS[j], mats[i]), (key, i, j)


def test_boundary_signature_reads_each_edge():
    cases = {
        # disc > 0: the root of the Hessian (t, s, r) has Re = -s/2t
        (0, 1, 0, -1): (0, False),  # (1, 0, 3)
        (0, 1, 1, -1): (-1, False),  # (1, 1, 4)
        (0, 1, -1, -1): (1, False),  # (1, -1, 4)
        (0, 3, 0, -1): (0, True),  # (9, 0, 9)
        (1, 1, -2, -1): (-1, True),  # (7, 7, 7)
        (1, -1, -3, 1): (0, False),  # (10, -6, 12)
        # disc < 0, a = 0: w = (-c + sqrt(c^2 - 4bd)) / 2b
        (0, 1, 0, 2): (0, False),  # i sqrt 2
        (0, 1, 1, 2): (-1, False),  # (-1 + i sqrt 7) / 2
        (0, 2, -1, 2): (0, True),  # |w| = 1, Re w = 1/4
        (0, 1, -1, 1): (1, True),  # e^(pi i/3)
        # disc < 0, a >= 1: f = (x - theta)(x - w)(x - wbar)
        (1, 0, 2, 0): (0, False),  # theta = 0, w = i sqrt 2
        (1, 0, 1, 0): (0, True),  # theta = 0, w = i
        (1, 1, 1, 0): (-1, True),  # theta = 0, w = e^(2 pi i/3)
        (1, -2, 3, -2): (1, False),  # theta = 1, w = (1 + i sqrt 7) / 2
        (1, -2, 2, -1): (1, True),  # theta = 1, w = e^(pi i/3)
        (1, -1, 2, -1): (0, False),  # the disc -23 field
    }
    for f, want in cases.items():
        assert is_reduced(f), f
        assert boundary_signature(f) == want, f


def test_reduced_predicates_match_the_reference():
    # the predicates reduce_form, orbit_closure and the box oracle accept a
    # form by, against the definitions, on every nondegenerate form with
    # coefficients in [-10, 10]; both verdicts occur for both disc signs
    seen = set()
    for f in itertools.product(range(-10, 11), repeat=4):
        D = disc(f)
        if D:
            want = is_reduced(f)
            assert (is_reduced_pos(f) if D > 0 else is_reduced_neg(f)) == want, f
            seen.add((D > 0, want))
    assert len(seen) == 4


def test_reduced_orbit_rejects_unreduced():
    with pytest.raises(ValueError):
        reduced_orbit((0, 1, 5, 1))


def test_random_unimodular_is_unimodular():
    rng = random.Random(0)
    for _ in range(50):
        assert abs(random_unimodular(rng).det) == 1


def test_form_serialization_roundtrip():
    f = BinaryCubicForm(1, -2, 3, -4)
    assert parse_form(str(f)) == f
