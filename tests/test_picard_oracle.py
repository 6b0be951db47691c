"""The Picard groups built from reduced forms, generators and a Smith normal
form, checked against the construction they replaced, which stays here as
the oracle: every primitive invertible ideal up to the norm bound is keyed
by a canonical reduced form (the least form over both rho-cycles for real
D), the first ideal of each key in order of norm, then b, is the class
representative, and the full h x h table comes from multiplying
representatives as ideals, independently of the form composition the
library uses for the group law."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, isqrt

from cubicount import quad
from cubicount.quad import (
    divisors,
    extend_ideal,
    factorize,
    fundamental_part,
    fundamental_unit,
    ideal_form_coefficients,
    ideals_of_norm,
    in_discs,
    is_square,
    mu3_characters,
    order,
    picard_group,
)
from reference import (
    class_inverse,
    extension_map_by_coprime_reps,
    first_ideals_by_norm,
    ideal_mul,
    kronecker,
    order_change_map,
    structure_by_products,
)


def canonical_key(I):
    """One key per Picard class: the reduced form (D < 0), the least reduced
    form on the rho-cycles of both orientations (D > 0 not a square), or
    (0, m, min(+-c)) (D = m^2)."""
    t, s, r = ideal_form_coefficients(I)
    D = I.D
    if D < 0:
        return quad._reduce_definite(t, s, r)
    m = isqrt(D)
    if m * m == D:
        c = quad._split_residue(m, t, s, r)
        return 0, m, min(c, -c % m)
    return min(_least_on_cycle(D, m, t, s, r), _least_on_cycle(D, m, -t, s, -r))


def _least_on_cycle(D, sq, a, b, c):
    f = (a, b, c)
    while not quad._is_reduced_indefinite(D, sq, f[0], f[1]):
        f = quad._rho(D, sq, *f)
    least = start = f
    f = quad._rho(D, sq, *f)
    while f != start:
        least = min(least, f)
        f = quad._rho(D, sq, *f)
    return least


class Oracle:
    def __init__(self, D):
        bound = max(6, 2 * (isqrt(abs(D)) + 1))
        self.pool = [
            I for n in range(1, bound + 1) for I in ideals_of_norm(D, n, invertible_only=True) if I.g == 1
        ]
        self.index = {}
        self.reps = []
        for I in self.pool:
            key = canonical_key(I)
            if key not in self.index:
                self.index[key] = len(self.reps)
                self.reps.append(I)
        n = len(self.reps)
        self.table = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                k = self.index[canonical_key(ideal_mul(self.reps[i], self.reps[j]))]
                self.table[i][j] = self.table[j][i] = k

    def cls(self, I):
        return self.index[canonical_key(I)]

    def power(self, i, e):
        out = 0
        for _ in range(e):
            out = self.table[out][i]
        return out

    def element_order(self, i):
        e, j = 1, i
        while j:
            j = self.table[j][i]
            e += 1
        return e

    def coprime_reps(self, f):
        out = {}
        for n in range(1, 20 * max(6, 2 * (isqrt(abs(self.reps[0].D)) + 1))):
            if len(out) == len(self.reps):
                break
            if gcd(n, f) == 1:
                for I in ideals_of_norm(self.reps[0].D, n, invertible_only=True):
                    if I.g == 1:
                        out.setdefault(self.cls(I), I)
        return [out[i] for i in range(len(self.reps))]


@lru_cache(maxsize=None)
def oracle(D):
    return Oracle(D)


def _order_counts(invariants):
    """How many elements of each order Z/d_1 x ... x Z/d_k has."""
    counts = Counter()
    for v in product(*(range(d) for d in invariants)):
        e = 1
        for x, d in zip(v, invariants):
            k = d // gcd(x, d)
            e = e * k // gcd(e, k)
        counts[e] += 1
    return counts


def discs(limit):
    return [D for D in range(-limit, limit + 1) if in_discs(D)]


def test_smith_normal_form_examples():
    assert quad._smith([[2, 0], [0, 3]])[0] == [1, 6]
    assert quad._smith([[4, 0], [2, 6]])[0] == [2, 12]
    assert quad._smith([[3, 0, 0], [0, 3, 0], [1, 2, 9]])[0] == [1, 3, 27]
    assert quad._smith([]) == ([], [])


def test_picard_group_matches_oracle_table():
    for D in discs(2000):
        G, O = picard_group(D), oracle(D)
        n = len(O.reps)
        assert len(G) == n and G.reps == tuple(O.reps), D
        inv = G.invariants
        assert all(d > 1 for d in inv) and all(b % a == 0 for a, b in zip(inv, inv[1:])), (D, inv)
        orders = Counter(O.element_order(i) for i in range(n))
        assert _order_counts(inv) == orders, (D, inv)
        cubes = {O.power(i, 3) for i in range(n)}
        assert G.three_torsion() == sum(1 for i in range(n) if O.power(i, 3) == 0), D
        for i in range(n):
            row = O.table[i]
            assert class_inverse(G, i) == row.index(0), (D, i)
            assert G.is_cube(i) == (i in cubes), (D, i)
            for j in range(n):
                assert G.mul(i, j) == row[j], (D, i, j)


def test_reps_match_the_norm_scan():
    # the representatives read off the class keys, and walked for D = m^2,
    # are the scan's first ideals by norm, then b, in the scan's order
    for D in discs(5000) + [m * m for m in range(71, 400)]:
        assert picard_group(D).reps == tuple(first_ideals_by_norm(D).values()), D


def test_class_of_matches_oracle_on_the_pool():
    for D in discs(600):
        G, O = picard_group(D), oracle(D)
        for I in O.pool:
            assert G.class_of(I) == O.cls(I), (D, I)


def _homomorphisms_to_z3(table):
    """Every chi with chi(i j) = chi(i) + chi(j) mod 3, by backtracking over
    the classes in order."""
    n = len(table)
    out = []

    def extend(vals):
        i = len(vals)
        if i == n:
            out.append(tuple(vals))
            return
        for v in range(3):
            vals.append(v)
            if all(
                (vals[a] + vals[b]) % 3 == vals[table[a][b]]
                for a in range(i + 1)
                for b in range(a, i + 1)
                if table[a][b] <= i
            ):
                extend(vals)
            vals.pop()

    extend([])
    return sorted(out)


def test_mu3_characters_match_brute_force_homomorphisms():
    for D in discs(300):
        O = oracle(D)
        assert picard_group(D).reps == tuple(O.reps), D
        assert [chi.values for chi in mu3_characters(D)] == _homomorphisms_to_z3(O.table), D


def test_order_change_map_matches_extension_of_coprime_reps():
    checked = 0
    for D in discs(1000):
        D0, f = fundamental_part(D)
        Of = oracle(D)
        coprime = Of.coprime_reps(f)
        for c in divisors(f):
            Dt = D0 * c * c
            Ot = oracle(Dt)
            want = [Ot.cls(extend_ideal(R, Dt)) for R in coprime]
            assert order_change_map(D0, f, c) == want, (D, c)
            checked += 1
    assert checked > 1500


def test_composed_structure_matches_ideal_products():
    # the group law by form composition gives the invariants and exponent
    # vectors that the ideal products of the same reps give
    for D in discs(3000):
        G = picard_group(D)
        assert structure_by_products(G.reps, G.index) == (G.invariants, G.vectors), D


def test_extension_map_matches_coprime_reps():
    # extending each generator's own representative gives the map that
    # extending conductor-coprime representatives of every class gives
    pairs = 0
    for D in discs(3000):
        D0, f = fundamental_part(D)
        G = picard_group(D)
        for c in divisors(f):
            Gt = picard_group(D0 * c * c)
            assert quad._extension_map(G, Gt) == extension_map_by_coprime_reps(G, Gt), (D, c)
            pairs += 1
    assert pairs == 4835


def test_order_change_map_returns_a_fresh_list():
    m = order_change_map(-23, 2, 1)
    before = list(m)
    m[0] = "junk"
    assert order_change_map(-23, 2, 1) == before and sorted(set(before)) == [0, 1, 2]


def test_primitive_char_is_the_least_factorization():
    # chi is the primitive character pulled back along the extension map,
    # and is not constant on the fibres of the map to any smaller order
    for D in range(-1000, 1001):
        if not in_discs(D):
            continue
        D0, f = fundamental_part(D)
        if f == 1:
            continue
        for chi in mu3_characters(D):
            prim = quad.primitive_char(chi)
            c = fundamental_part(prim.D)[1]
            assert prim.D == D0 * c * c and f % c == 0, (D, chi)
            assert tuple(prim.values[j] for j in order_change_map(D0, f, c)) == chi.values, (D, chi)
            for c2 in divisors(c)[:-1]:
                fibres = {}
                for x, j in zip(chi.values, order_change_map(D0, f, c2)):
                    fibres.setdefault(j, set()).add(x)
                assert any(len(v) > 1 for v in fibres.values()), (D, chi, c2)


# ---------------------------------------------------------------------------
# the class number formula, which needs no ideal arithmetic


def _roots_of_unity(D):
    return {-3: 6, -4: 4}.get(D, 2)


@lru_cache(maxsize=None)
def _dirichlet_h(D0):
    """h(D0) for a fundamental D0 < 0: -(w / 2|D0|) sum_{n < |D0|} (D0|n) n."""
    h = Fraction(-_roots_of_unity(D0) * sum(kronecker(D0, n) * n for n in range(1, -D0)), -2 * D0)
    assert h.denominator == 1 and h > 0, D0
    return int(h)


def _unit_index(D0, f):
    """[O_K^x : O^x] for the order of conductor f in the field of
    discriminant D0: w(D0)/2 for D0 < 0 and f > 1; for D0 > 0 the k with
    eps_{D0}^k = eps_D, both fundamental units > 1."""
    D = D0 * f * f
    if D0 < 0:
        return _roots_of_unity(D0) // _roots_of_unity(D)
    # x + y xi_D with xi_D = (r_D - f r_0)/2 + f xi_0, in the basis of O_{D0}
    x, y = fundamental_unit(D)
    target = (x + y * ((D % 2 - f * (D0 % 2)) // 2), y * f)
    o0, eps0 = order(D0), fundamental_unit(D0)
    power, k = eps0, 1
    while power != target:
        assert k < f * f, (D0, f)
        power, k = o0.mul(power, eps0), k + 1
    return k


def test_class_numbers_match_the_class_number_formula():
    # h(D0 f^2) = h(D0) f prod_{p | f} (1 - (D0|p)/p) / [O_K^x : O^x] (Cox,
    # Thm 7.24; Neukirch, Thm I.12.12), with h(D0) from Dirichlet's formula
    # for D0 < 0 and from the group itself for D0 > 0
    real_orders = 0
    for D in range(-3000, 3001):
        if not in_discs(D) or is_square(D):
            continue
        D0, f = fundamental_part(D)
        if D0 > 0:
            if f == 1:
                continue
            h0 = len(picard_group(D0))
            real_orders += 1
        else:
            h0 = _dirichlet_h(D0)
        want = Fraction(h0 * f, _unit_index(D0, f))
        for p in factorize(f):
            want *= 1 - Fraction(kronecker(D0, p), p)
        assert len(picard_group(D)) == want, (D, want)
    assert real_orders == 537
