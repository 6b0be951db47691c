"""Bridges between cubic rings and quadratic ideal theory.

For an oriented ring with all traces in 3Z and discriminant -27*D, a
trace-zero generic element alpha with char poly x^3 + 3t x + u = 0 is
"solved" by the cubic formula: writing gamma for the root
(-u + e*sqrt(D))/2 of the resolvent (e the Levi form value at alpha),
the trace-zero part of the ring becomes {xi cbrt(gamma) + conj in a
sextic algebra}, indexed by a lattice I in Q(sqrt(D)).  The resulting
triple (O_D, I, gamma) satisfies gamma I^3 contained in O_D and
|N(gamma)| N(I)^3 = 1, and the assignment inverts the classical cube
parametrization.  Scaling I by g = gcd of its form coefficients yields an
invertible ideal J = gamma I^3 / g of norm g in the order of discriminant
D/g^2 whose class is a cube.

On top of the triple extraction sit the two global counts: the ideal-side
count (invertible cube-class ideals weighted by 3-torsion) equals
2 w eta hhat, and the character-side count (subring counts with splitting
types read off ideal characters) equals 2 w h.  The remaining checks --
the 3-torsion reflection between discriminants D and -3D, the restricted
ideal count for 3 not dividing D, and the field count against
(|Pic[3]|-1)/2 -- are small corollaries verified directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .forms import BinaryCubicForm, disc, is_zmat
from .rings import ring_from_form, CubicRing
from .counting import h_value, factorize, s_sequence
from . import quad
from .quad import (
    Mu3Char,
    QuadIdeal,
    conductor_of_char,
    extend_ideal,
    factored_char,
    fundamental_part,
    ideal_from_generators,
    ideals_of_norm,
    in_discs,
    is_invertible,
    is_square,
    kronecker,
    mu3_characters,
    pic_3_torsion,
    picard_group,
)


def weight_w(D: int) -> int:
    """3 when D is a perfect square, else 1."""
    return 3 if is_square(D) else 1


def weight_eta(D: int) -> Fraction:
    """1/3 for positive D, 1 for negative."""
    return Fraction(1, 3) if D > 0 else Fraction(1)


# ---------------------------------------------------------------------------
# Rational lattices in Q(sqrt(D)), coordinates (x, y) meaning x + y sqrt(D)

def k2_mul(D, u, v):
    return (u[0] * v[0] + u[1] * v[1] * D, u[0] * v[1] + u[1] * v[0])


def k2_conj(u):
    return (u[0], -u[1])


def k2_norm(D, u):
    return u[0] * u[0] - u[1] * u[1] * D


def k2_inv(D, u):
    n = k2_norm(D, u)
    if n == 0:
        raise ZeroDivisionError("not a unit in the quadratic algebra")
    return (Fraction(u[0], 1) / n, Fraction(-u[1], 1) / n)


class RatLattice(NamedTuple):
    """Rank-2 lattice in Q(sqrt(D)): rows (x1, 0), (x2, y2) over Q with
    y2 > 0, 0 <= x2 < x1 after normalization."""

    D: int
    x1: Fraction
    x2: Fraction
    y2: Fraction

    def basis(self):
        return [(self.x1, Fraction(0)), (self.x2, self.y2)]


def rat_lattice(D, gens) -> RatLattice:
    """Hermite-normalize rational generators (pairs of Fractions)."""
    gens = [(Fraction(x), Fraction(y)) for x, y in gens if (x, y) != (0, 0)]
    if not gens:
        raise ValueError("zero lattice")
    den = 1
    for x, y in gens:
        den = den * x.denominator // gcd(den, x.denominator)
        den = den * y.denominator // gcd(den, y.denominator)
    ivecs = [(int(x * den), int(y * den)) for x, y in gens]
    # integer HNF on (x, y), y-column as pivot
    while True:
        nz = [v for v in ivecs if v[1]]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda v: abs(v[1]))
        x0, y0 = nz[0]
        out = [nz[0]]
        for v in ivecs:
            if v is nz[0]:
                continue
            if v[1]:
                q = v[1] // y0
                w = (v[0] - q * x0, v[1] - q * y0)
            else:
                w = v
            if w != (0, 0):
                out.append(w)
        ivecs = out
    pivot = next((v for v in ivecs if v[1]), None)
    if pivot is None:
        raise ValueError("rank-deficient lattice")
    if pivot[1] < 0:
        pivot = (-pivot[0], -pivot[1])
    ax = 0
    for x, y in ivecs:
        if not y:
            ax = gcd(ax, x)
    if ax == 0:
        raise ValueError("rank-deficient lattice")
    x2 = pivot[0] % ax
    return RatLattice(D, Fraction(ax, den), Fraction(x2, den), Fraction(pivot[1], den))


def lat_mul(L: RatLattice, M: RatLattice) -> RatLattice:
    gens = [k2_mul(L.D, u, v) for u in L.basis() for v in M.basis()]
    return rat_lattice(L.D, gens)


def lat_scale(L: RatLattice, el) -> RatLattice:
    gens = [k2_mul(L.D, el, v) for v in L.basis()]
    return rat_lattice(L.D, gens)


def lat_norm(L: RatLattice) -> Fraction:
    """Index-norm against O_D: twice the covolume in (1, sqrt D) coords."""
    return abs(L.x1 * L.y2) * 2


def lat_contains(L: RatLattice, el) -> bool:
    x, y = Fraction(el[0]), Fraction(el[1])
    if L.y2 == 0:
        return False
    k = y / L.y2
    if k.denominator != 1:
        return False
    rem = x - k * L.x2
    q = rem / L.x1
    return q.denominator == 1


def lat_subset_order(L: RatLattice) -> bool:
    """L contained in O_D: each basis vector (x, y) needs 2y integral and
    x - (D mod 2) y integral."""
    r = L.D % 2
    for x, y in L.basis():
        if (2 * y).denominator != 1:
            return False
        if (x - r * y).denominator != 1:
            return False
    return True


def lat_to_ideal(L: RatLattice) -> QuadIdeal:
    """Convert an integral sublattice of O_D to normal form."""
    assert lat_subset_order(L)
    r = L.D % 2
    gens = []
    for x, y in L.basis():
        gens.append((int(x - r * y), int(2 * y)))
    return ideal_from_generators(L.D, gens)


# ---------------------------------------------------------------------------
# Triple extraction

class SelfBalancedTriple(NamedTuple):
    D: int                    # quadratic discriminant (ring disc is -27 D)
    I: RatLattice             # lattice with basis [1, tau]
    gamma: tuple              # (Fraction, Fraction) in (1, sqrt D) coords
    t: int
    s: int
    r: int
    u: int
    e: int                    # Levi form value at alpha
    alpha: tuple              # ring coordinates of the chosen alpha
    sqrt_image: tuple         # ring coordinates (Fractions) of c(sqrt D)

    @property
    def content(self) -> int:
        return gcd(gcd(abs(self.t), abs(self.s)), abs(self.r))

    def norm_condition(self) -> bool:
        ng = k2_norm(self.D, self.gamma)
        return abs(ng) * lat_norm(self.I) ** 3 == 1

    def containment_condition(self) -> bool:
        cube = lat_mul(lat_mul(self.I, self.I), self.I)
        return lat_subset_order(lat_scale(cube, self.gamma))


def _trace_zero_basis(form):
    a, b, c, d = form
    assert b % 3 == 0 and c % 3 == 0
    return ((b // 3, 1, 0), (-c // 3, 0, 1))


def _alpha_candidates(form):
    w1, w2 = _trace_zero_basis(form)
    m = 0
    while True:
        m += 1
        for x1 in range(-m, m + 1):
            for x2 in range(-m, m + 1):
                if max(abs(x1), abs(x2)) != m:
                    continue
                if gcd(x1, x2) != 1:
                    continue
                yield tuple(
                    x1 * w1[i] + x2 * w2[i] for i in range(3)
                )
        if m > 64:
            raise RuntimeError("no generic trace-zero element found")


def extract_triple(form, orientation: int = 1, skip: int = 0) -> SelfBalancedTriple:
    """Deterministic triple extraction from an oriented ring with traces in
    3Z: scan primitive trace-zero alpha by increasing coordinate size until
    both genericity conditions hold (skip > 0 takes later candidates, for
    the independence-of-alpha property)."""
    f = BinaryCubicForm(*form)
    if not is_zmat(f):
        raise ValueError("ring does not have all traces divisible by 3")
    Dring = disc(f)
    if Dring == 0:
        raise ValueError("degenerate ring")
    assert Dring % 27 == 0
    D = -(Dring // 27)
    ring = ring_from_form(f, orientation)
    for alpha in _alpha_candidates(f):
        tr2 = ring.trace(ring.mul(alpha, alpha))
        det = _det3_cols((1, 0, 0), alpha, ring.mul(alpha, alpha))
        if tr2 == 0 or det == 0:
            continue
        if skip > 0:
            skip -= 1
            continue
        return _triple_from_alpha(ring, D, alpha, tr2, det)
    raise RuntimeError("unreachable")


def _det3_cols(v0, v1, v2):
    m = [v0, v1, v2]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[1][0] * (m[0][1] * m[2][2] - m[0][2] * m[2][1])
        + m[2][0] * (m[0][1] * m[1][2] - m[0][2] * m[1][1])
    )


def _triple_from_alpha(ring: CubicRing, D: int, alpha, tr2: int, det: int):
    assert tr2 % 6 == 0
    t = -tr2 // 6
    e = det * ring.orientation  # Levi form value at alpha
    alpha2 = ring.mul(alpha, alpha)
    alpha3 = ring.mul(alpha2, alpha)
    u = -(alpha3[0] + 3 * t * alpha[0])
    # char poly: alpha^3 + 3t alpha + u = 0
    assert alpha3 == tuple(-3 * t * alpha[i] - u * (1, 0, 0)[i] for i in range(3))
    assert u * u + 4 * t ** 3 == e * e * D, "resolvent discriminant mismatch"
    A = Fraction(-u, 2)
    B = Fraction(e, 2)
    gamma = (A, B)
    assert k2_norm(D, gamma) == -Fraction(t) ** 3
    # image of sqrt(D) under the lattice identification:
    # c(sqrt D) = (t alpha^2 + 2 t^2 + A alpha)/B
    vs = tuple(
        (t * alpha2[i] + A * alpha[i] + (2 * t * t if i == 0 else 0)) / B
        for i in range(3)
    )
    a_, b_, c_, _ = ring.form
    assert 3 * vs[0] - b_ * vs[1] + c_ * vs[2] == 0  # c(sqrt D) has trace zero
    # express the trace-zero basis in terms of alpha, c(sqrt D)
    w1, w2 = _trace_zero_basis(ring.form)
    gens = [_solve_in_plane(alpha, vs, w) for w in (w1, w2)]
    I = rat_lattice(D, gens)
    assert lat_contains(I, (1, 0)), "1 must lie in the extracted lattice"
    assert I.x1 == 1, "1 must be primitive in the extracted lattice"
    tau = (I.x2, I.y2)
    # choose the sign of tau so that [1, alpha, c(tau)] is positively
    # oriented; this pins which of +-(t, s, r) the ring is assigned
    ctau = tuple(tau[0] * alpha[i] + tau[1] * vs[i] for i in range(3))
    dd = _det3_cols((1, 0, 0), alpha, ctau)
    assert abs(dd) == 1
    if dd != ring.orientation:
        tau = (-tau[0], -tau[1])
    # tau = (s + sqrt D)/q with q = +-2t
    q = 1 / tau[1]
    assert q.denominator == 1 and abs(int(q)) == 2 * abs(t)
    q = int(q)
    s = tau[0] * q
    assert s.denominator == 1
    s = int(s)
    assert (s - D) % 2 == 0
    t_att = q // (-2)  # attached triple (t, s, r) read from the denominator
    # orientation normalization realizes the converse convention
    # sgn(t) = sgn(N(gamma)), i.e. N(gamma) = t^3 on the nose
    assert k2_norm(D, gamma) == Fraction(t_att) ** 3
    # r completes t x^2 + s x y + r y^2 to the attached quadratic form of
    # discriminant exactly D; its content is the conductor ratio of the
    # multiplier ring of I
    num = s * s - D
    assert num % (4 * t_att) == 0
    r = num // (4 * t_att)
    trip = SelfBalancedTriple(D, I, gamma, t_att, s, r, u, e, tuple(alpha), vs)
    assert trip.norm_condition(), "balance norm condition failed"
    assert trip.containment_condition(), "gamma I^3 not inside the order"
    return trip


def _solve_in_plane(alpha, vs, w):
    """(x, y) with w = x*alpha + y*vs, solved on the last two coordinates."""
    det = alpha[1] * vs[2] - alpha[2] * vs[1]
    assert det != 0
    x = (Fraction(w[1]) * vs[2] - Fraction(w[2]) * vs[1]) / det
    y = (Fraction(alpha[1]) * w[2] - Fraction(alpha[2]) * w[1]) / det
    # consistency on the constant coordinate
    assert x * alpha[0] + y * vs[0] == w[0]
    return x, y


def triples_equivalent(t1: SelfBalancedTriple, t2: SelfBalancedTriple):
    """For triples extracted from the same oriented ring with different
    generic elements: exhibit lambda with I2 = lambda I1 and
    gamma2 = lambda^-3 gamma1 (the identification sending c1 to c2).
    Returns lambda or None."""
    if t1.D != t2.D:
        return None
    D = t1.D
    # lambda = c2^{-1}(c1(1)) = c2^{-1}(alpha1)
    lam = _solve_in_plane(t2.alpha, t2.sqrt_image, t1.alpha)
    if k2_norm(D, lam) == 0:
        return None
    if lat_scale(t1.I, lam) != t2.I:
        return None
    lam3 = k2_mul(D, k2_mul(D, lam, lam), lam)
    g1_scaled = k2_mul(D, t1.gamma, k2_inv(D, lam3))
    if (Fraction(g1_scaled[0]), Fraction(g1_scaled[1])) != (
        Fraction(t2.gamma[0]),
        Fraction(t2.gamma[1]),
    ):
        return None
    return lam


# ---------------------------------------------------------------------------
# J = gamma I^3 / g

def triple_to_J(trip: SelfBalancedTriple):
    """(D', g, J): J = gamma I^3 / g is an invertible integral ideal of
    norm g in the order of discriminant D' = D / g^2, of cube class."""
    g = trip.content
    D = trip.D
    assert D % (g * g) == 0
    Dp = D // (g * g)
    assert in_discs(Dp)
    cube = lat_mul(lat_mul(trip.I, trip.I), trip.I)
    Jlat = lat_scale(lat_scale(cube, trip.gamma), (Fraction(1, g), Fraction(0)))
    # rewrite in sqrt(D') coordinates: sqrt(D) = g sqrt(D')
    gens = [(x, y * g) for x, y in Jlat.basis()]
    Jp = rat_lattice(Dp, gens)
    assert lat_subset_order(Jp), "J must be integral over the multiplier order"
    J = lat_to_ideal(Jp)
    assert J.norm == g, (J, g)
    assert is_invertible(J)
    return Dp, g, J


# ---------------------------------------------------------------------------
# The two global counts

def rhs_count(D: int) -> int:
    """Number of invertible cube-class ideals J of norm g in orders O_{D'}
    over all factorizations D' g^2 = D, weighted by |Pic(O_{D'})[3]|."""
    if not in_discs(D):
        raise ValueError("not a discriminant")
    total = 0
    g = 1
    while g * g <= abs(D):
        if D % (g * g) == 0 and in_discs(D // (g * g)):
            Dp = D // (g * g)
            G = picard_group(Dp)
            cnt = 0
            for J in ideals_of_norm(Dp, g, invertible_only=True):
                if G.is_cube(G.class_of(J)):
                    cnt += 1
            total += cnt * G.three_torsion()
        g += 1
    return total


def rhs_identity_check(D: int) -> dict:
    lhs = Fraction(rhs_count(D))
    rhs = 2 * weight_w(D) * weight_eta(D) * h_value(D, zmat_variant=True)
    return {"check": "rhs", "delta": D, "lhs": lhs, "rhs": rhs, "pass": lhs == rhs}


def splitting_type_from_char(chi: Mu3Char, p: int) -> str:
    """Splitting type at p of the cubic algebra attached to a primitive
    character of conductor d on Pic(O_{D0 d^2})."""
    D0, d = fundamental_part(chi.D)
    if conductor_of_char(chi) != d:
        raise ValueError("character must be primitive on its own order")
    if d % p == 0:
        return "1^3"
    if D0 % p == 0:
        return "1^2 1"
    if kronecker(D0, p) == -1:
        return "12"
    primes = [I for I in ideals_of_norm(chi.D, p, invertible_only=True)]
    assert len(primes) == 2, "split prime should have two ideals above it"
    return "111" if chi(primes[0]) == 0 else "3"


def lhs_count(D: int, enforce_cubefree: bool = True) -> int:
    """Character-side count: over all chi on Pic(O_D), the number of index
    m/cond(chi) subrings of the attached cubic ring, from local splitting
    types; m is the conductor of O_D.  The identity is proved for cubefree
    m, so non-cubefree conductors are rejected by default; pass
    enforce_cubefree=False to evaluate the sum anyway and compare (it has
    matched 2 w h on every case tried)."""
    if not in_discs(D):
        raise ValueError("not a discriminant")
    D0, m = fundamental_part(D)
    if enforce_cubefree and any(e >= 3 for e in factorize(m).values()):
        raise ValueError("conductor must be cubefree")
    total = 0
    for chi in mu3_characters(D):
        c = conductor_of_char(chi)
        m1 = m // c
        chi_prim = factored_char(chi, c)
        term = 1
        for p, v in factorize(m1).items():
            term *= s_sequence(splitting_type_from_char(chi_prim, p), p, v)
        total += term
    return total


def lhs_identity_check(D: int) -> dict:
    lhs = Fraction(lhs_count(D))
    rhs = 2 * weight_w(D) * h_value(D)
    return {"check": "lhs", "delta": D, "lhs": lhs, "rhs": rhs, "pass": lhs == rhs}


def chi_term_sum(chi: Mu3Char, m1: int):
    """Character sum over invertible ideals: sum over c'·f = m1 of
    sum_{I in O_{D1 c'^2}, invertible, norm f} omega^{chi(I)}, evaluated by
    extending I to the character's own order.  Returns an integer (the
    omega and omega^2 counts must agree)."""
    D1 = chi.D
    D0, base = fundamental_part(D1)
    counts = [0, 0, 0]
    for cp in sorted(d for d in range(1, m1 + 1) if m1 % d == 0):
        f = m1 // cp
        Dc = D1 * cp * cp
        for I in ideals_of_norm(Dc, f, invertible_only=True):
            J = extend_ideal(I, D1)
            counts[chi(J)] += 1
    assert counts[1] == counts[2], "character sum not rational"
    return counts[0] - counts[1]


def check_fields_pic(D: int, budget=None) -> dict:
    """Count cubic fields whose discriminant squarely divides D against
    (|Pic(O_D)[3]| - 1)/2."""
    from .counting import orbit_table

    if not in_discs(D):
        raise ValueError("not a discriminant")
    fields = 0
    k = 1
    while k * k <= abs(D):
        if D % (k * k) == 0 and in_discs(D // (k * k)):
            Dk = D // (k * k)
            table = orbit_table(abs(Dk), False, budget)
            for orb in table.get(Dk, []):
                if _is_field_form(orb.form):
                    fields += 1
        k += 1
    t3 = pic_3_torsion(D)
    assert (t3 - 1) % 2 == 0
    expected = (t3 - 1) // 2
    return {
        "check": "fields-pic",
        "delta": D,
        "lhs": Fraction(fields),
        "rhs": Fraction(expected),
        "pass": fields == expected,
    }


def _is_field_form(form) -> bool:
    from .rings import is_maximal

    return is_irreducible(form) and is_maximal(form)


def is_irreducible(form) -> bool:
    """No rational projective root (degree 3: reducible iff a linear factor)."""
    a, b, c, d = form
    if a == 0:
        return False
    if d == 0:
        return False
    for p in _divisors_signed(d):
        for q in _divisors_pos(a):
            if gcd(p, q) != 1:
                continue
            if a * p ** 3 + b * p * p * q + c * p * q * q + d * q ** 3 == 0:
                return False
    return True


def _divisors_signed(n):
    n = abs(n)
    out = []
    for k in range(1, n + 1):
        if n % k == 0:
            out += [k, -k]
    return out


def _divisors_pos(n):
    n = abs(n)
    return [k for k in range(1, n + 1) if n % k == 0]


def check_prop_3notdiv(D: int) -> dict:
    """For 3 not dividing D: 6 w_{-3D} eta_{-3D} h(D) equals the ideal-side
    sum for discriminant -27 D restricted to factorizations with 3 ∤ g."""
    if D % 3 == 0:
        raise ValueError("requires 3 coprime to the discriminant")
    if not in_discs(D):
        raise ValueError("not a discriminant")
    X = -27 * D
    total = 0
    g = 1
    while g * g <= abs(X):
        if g % 3 and X % (g * g) == 0 and in_discs(X // (g * g)):
            Dp = X // (g * g)
            G = picard_group(Dp)
            cnt = 0
            for J in ideals_of_norm(Dp, g, invertible_only=True):
                if G.is_cube(G.class_of(J)):
                    cnt += 1
            total += cnt * G.three_torsion()
        g += 1
    lhs = 6 * weight_w(-3 * D) * weight_eta(-3 * D) * h_value(D)
    return {
        "check": "prop6",
        "delta": D,
        "lhs": lhs,
        "rhs": Fraction(total),
        "pass": lhs == Fraction(total),
    }


def check_scholz(D0: int) -> dict:
    """3-torsion ratio between the class groups of discriminant -3*D0 and
    D0 lies in {3, 1} for D0 > 1 and {1, 1/3} for D0 < 0."""
    from .quad import is_fundamental

    if not is_fundamental(D0) or D0 == 1:
        raise ValueError("need a fundamental discriminant different from 1")
    refl, _ = fundamental_part(-3 * D0)
    ratio = Fraction(pic_3_torsion(refl), pic_3_torsion(D0))
    allowed = (Fraction(3), Fraction(1)) if D0 > 1 else (Fraction(1), Fraction(1, 3))
    return {
        "check": "scholz",
        "delta": D0,
        "lhs": ratio,
        "rhs": allowed,
        "pass": ratio in allowed,
    }
