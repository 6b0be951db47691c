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

The extraction runs in integer arithmetic: gamma and c(sqrt D) have
integer numerators over the denominators 2 and e, and the triple stores
only those numerators.  Every lattice in Q(sqrt D) is a `RatLattice`, an
integer Hermite normal form over one denominator reduced by the same
kernel `quad.hnf2` as quadratic ideals.  The extracted I has the basis
[1, tau], so gamma I^3 is one Hermite form of gamma, gamma tau, gamma
tau^2 and gamma tau^3 (`gamma_cube`), built once per triple and stored
on it for the containment check and `triple_to_J`; J's generators are
read straight off its two rows, and J is invertible iff its quadratic
form is primitive (`quad.is_invertible`).  The checks on a
triple (char poly, resolvent, orientation, the balance conditions, the
integrality and invertibility of J) raise `forms.InvariantError`, so they
hold under `python -O` too.

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

from .forms import BinaryCubicForm, InvariantError, disc, is_zmat
from .rings import CubicRing, _det3, is_maximal, ring_from_form
from .counting import _orbits_at, h_value, factorize, report, s_sequence
from .quad import (
    Mu3Char,
    divisors,
    fundamental_part,
    hnf2,
    ideal_from_generators,
    ideals_of_norm,
    in_discs,
    is_fundamental,
    is_invertible,
    is_square,
    kronecker,
    mu3_characters,
    pic_3_torsion,
    picard_group,
    primitive_char,
)


def weight_w(D: int) -> int:
    """3 when D is a perfect square, else 1."""
    return 3 if is_square(D) else 1


def weight_eta(D: int) -> Fraction:
    """1/3 for positive D, 1 for negative."""
    return Fraction(1, 3) if D > 0 else Fraction(1)


# ---------------------------------------------------------------------------
# Lattices in Q(sqrt(D)), coordinates (x, y) meaning x + y sqrt(D)

def k2_mul(D, u, v):
    return (u[0] * v[0] + u[1] * v[1] * D, u[0] * v[1] + u[1] * v[0])


class RatLattice(NamedTuple):
    """Rank-2 lattice in Q(sqrt(D)) with the rows (a, 0)/den and
    (b, c)/den: an integer Hermite normal form over one denominator,
    normalized to a, c, den > 0, 0 <= b < a and gcd(den, a, b, c) = 1, so
    that equal lattices are equal tuples."""

    D: int
    den: int
    a: int
    b: int
    c: int

    def rows(self):
        """The integer numerators of the two rows."""
        return ((self.a, 0), (self.b, self.c))


def int_lattice(D, den, vecs) -> RatLattice:
    """The lattice spanned by the integer pairs vecs, divided by den > 0."""
    a, b, c = hnf2(vecs)
    k = gcd(gcd(den, a), gcd(b, c))
    return RatLattice(D, den // k, a // k, b // k, c // k)


def lat_subset_order(L: RatLattice) -> bool:
    """L contained in O_D: each row (x, y) needs 2y integral and
    x - (D mod 2) y integral."""
    r = L.D % 2
    return L.a % L.den == 0 and 2 * L.c % L.den == 0 and (L.b - r * L.c) % L.den == 0


# ---------------------------------------------------------------------------
# Triple extraction

def gamma_cube(I: RatLattice, u: int, e: int) -> RatLattice:
    """gamma I^3 for gamma = (-u + e sqrt D)/2.  I has the basis [1, tau],
    so I^3 is spanned by 1, tau, tau^2 and tau^3: one Hermite form of four
    vectors over the denominator 2 den^3."""
    if I.a != I.den:
        raise InvariantError("1 is not a primitive vector of %r" % (I,))
    D, n = I.D, I.den
    tau = (I.b, I.c)
    tau2 = k2_mul(D, tau, tau)
    powers = ((n ** 3, 0), (n * n * I.b, n * n * I.c), (n * tau2[0], n * tau2[1]), k2_mul(D, tau2, tau))
    return int_lattice(D, 2 * n ** 3, [k2_mul(D, (-u, e), v) for v in powers])


class SelfBalancedTriple(NamedTuple):
    D: int                    # quadratic discriminant (ring disc is -27 D)
    I: RatLattice             # lattice with basis [1, tau]
    t: int
    s: int
    r: int
    u: int
    e: int                    # Levi form value at alpha
    alpha: tuple              # ring coordinates of the chosen alpha
    sqrt_num: tuple           # ring coordinates of c(sqrt D), times e
    gamma_I3: RatLattice      # gamma I^3, built once by `gamma_cube`

    @property
    def gamma(self) -> tuple:
        """gamma = (-u + e sqrt D)/2 as Fractions in (1, sqrt D) coords."""
        return Fraction(-self.u, 2), Fraction(self.e, 2)

    @property
    def content(self) -> int:
        return gcd(gcd(abs(self.t), abs(self.s)), abs(self.r))

    def norm_condition(self) -> bool:
        """|N(gamma)| N(I)^3 = 1, cleared of denominators: N(gamma) =
        (u^2 - e^2 D)/4 and N(I) = 2ac/den^2."""
        I = self.I
        return abs(self.u ** 2 - self.e ** 2 * self.D) * (2 * I.a * I.c) ** 3 == 4 * I.den ** 6

    def containment_condition(self) -> bool:
        return lat_subset_order(self.gamma_I3)


def _trace_zero_basis(form):
    a, b, c, d = form
    if b % 3 or c % 3:
        raise InvariantError("trace-zero basis of %r needs 3 | b, c" % (tuple(form),))
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
            raise InvariantError("no generic trace-zero element found for %r" % (tuple(form),))


def extract_triple(form, orientation: int = 1) -> SelfBalancedTriple:
    """Deterministic triple extraction from an oriented ring with traces in
    3Z: scan primitive trace-zero alpha by increasing coordinate size until
    both genericity conditions hold."""
    f = BinaryCubicForm(*form)
    if not is_zmat(f):
        raise ValueError("ring does not have all traces divisible by 3")
    Dring = disc(f)
    if Dring == 0:
        raise ValueError("degenerate ring")
    if Dring % 27:
        raise InvariantError("trace-divisible %r has disc %d not divisible by 27" % (tuple(f), Dring))
    D = -(Dring // 27)
    ring = ring_from_form(f, orientation)
    for alpha in _alpha_candidates(f):
        tr2 = ring.trace(ring.mul(alpha, alpha))
        det = _det3(((1, 0, 0), alpha, ring.mul(alpha, alpha)))
        if tr2 == 0 or det == 0:
            continue
        return _triple_from_alpha(ring, D, alpha, tr2, det)
    raise InvariantError("the trace-zero candidates of %r ran out" % (tuple(f),))


def _triple_from_alpha(ring: CubicRing, D: int, alpha, tr2: int, det: int):
    if tr2 % 6:
        raise InvariantError("tr(alpha^2) = %d is not divisible by 6" % tr2)
    t = -tr2 // 6
    e = det * ring.orientation  # Levi form value at alpha
    alpha2 = ring.mul(alpha, alpha)
    alpha3 = ring.mul(alpha2, alpha)
    u = -(alpha3[0] + 3 * t * alpha[0])
    if alpha3 != (-3 * t * alpha[0] - u, -3 * t * alpha[1], -3 * t * alpha[2]):
        raise InvariantError("alpha is not a root of x^3 + 3t x + u")
    # the resolvent discriminant u^2 + 4t^3 = e^2 D says that
    # gamma = (-u + e sqrt D)/2 has N(gamma) = (u^2 - e^2 D)/4 = -t^3
    if u * u + 4 * t ** 3 != e * e * D:
        raise InvariantError("resolvent discriminant mismatch: N(gamma) != -t^3")
    # image of sqrt(D) under the lattice identification:
    # c(sqrt D) = (t alpha^2 + 2 t^2 + gamma_x alpha)/gamma_y
    #           = (2t alpha^2 - u alpha + 4t^2)/e, numerators vs over e
    vs = (
        2 * t * alpha2[0] - u * alpha[0] + 4 * t * t,
        2 * t * alpha2[1] - u * alpha[1],
        2 * t * alpha2[2] - u * alpha[2],
    )
    if ring.trace(vs):
        raise InvariantError("c(sqrt D) does not have trace zero")
    # express the trace-zero basis in terms of alpha, c(sqrt D)
    w1, w2 = _trace_zero_basis(ring.form)
    x1, den = _solve_in_plane(alpha, vs, e, w1)
    x2, _ = _solve_in_plane(alpha, vs, e, w2)
    I = int_lattice(D, den, [x1, x2])
    if I.a != I.den:
        raise InvariantError("1 must be a primitive vector of the extracted lattice")
    # tau = (b + c sqrt D)/den; choose its sign so that [1, alpha, c(tau)]
    # is positively oriented; this pins which of +-(t, s, r) the ring is
    # assigned.  c(tau) = (b e alpha + c vs)/(den e), so the orientation
    # is dd/(den e) for the determinant dd of the numerators.
    ctau = tuple(I.b * e * alpha[i] + I.c * vs[i] for i in range(3))
    dd = _det3(((1, 0, 0), alpha, ctau))
    if abs(dd) != abs(I.den * e):
        raise InvariantError("[1, alpha, c(tau)] is not a basis")
    sign = 1 if dd // (I.den * e) == ring.orientation else -1
    # tau = (s + sqrt D)/q with q = +-2t, so q = sign den/c and s = b/c
    if I.den % I.c or I.den // I.c != 2 * abs(t) or I.b % I.c:
        raise InvariantError("tau is not (s + sqrt D)/(+-2t) with s integral")
    q = sign * (I.den // I.c)
    s = I.b // I.c
    if (s - D) % 2:
        raise InvariantError("s and D differ in parity")
    t_att = q // (-2)  # attached triple (t, s, r) read from the denominator
    # orientation normalization realizes the converse convention
    # sgn(t) = sgn(N(gamma)), i.e. N(gamma) = t^3 on the nose
    if u * u - e * e * D != 4 * t_att ** 3:
        raise InvariantError("N(gamma) != t^3 for the attached triple")
    # r completes t x^2 + s x y + r y^2 to the attached quadratic form of
    # discriminant exactly D; its content is the conductor ratio of the
    # multiplier ring of I
    num = s * s - D
    if num % (4 * t_att):
        raise InvariantError("4t does not divide s^2 - D")
    r = num // (4 * t_att)
    trip = SelfBalancedTriple(D, I, t_att, s, r, u, e, tuple(alpha), vs, gamma_cube(I, u, e))
    if not trip.norm_condition():
        raise InvariantError("balance norm condition failed")
    if not trip.containment_condition():
        raise InvariantError("gamma I^3 not inside the order")
    return trip


def _solve_in_plane(alpha, vs, vden, w):
    """((x, y), den) with den > 0 and w = (x alpha + y vs/vden)/den, solved
    on the last two coordinates and checked on the first; alpha and w are
    integer vectors, vs the integer numerators over vden."""
    det = alpha[1] * vs[2] - alpha[2] * vs[1]
    if det == 0:
        raise InvariantError("alpha and the image of sqrt D are dependent on the plane")
    x = w[1] * vs[2] - w[2] * vs[1]
    y = (alpha[1] * w[2] - alpha[2] * w[1]) * vden
    if det < 0:
        det, x, y = -det, -x, -y
    if x * alpha[0] * vden + y * vs[0] != w[0] * det * vden:
        raise InvariantError("no solution on the constant coordinate")
    return (x, y), det


# ---------------------------------------------------------------------------
# J = gamma I^3 / g

def triple_to_J(trip: SelfBalancedTriple):
    """(D', g, J): J = gamma I^3 / g is an invertible integral ideal of
    norm g in the order of discriminant D' = D / g^2, of cube class."""
    g = trip.content
    D = trip.D
    if D % (g * g):
        raise InvariantError("content %d: g^2 does not divide D = %d" % (g, D))
    Dp = D // (g * g)
    if not in_discs(Dp):
        raise InvariantError("D / g^2 = %d is not a discriminant" % Dp)
    # a row (x, y)/den of gamma I^3, divided by g, is x/(g den) + (y/den)
    # sqrt(D') with sqrt(D') = 2 xi' - r': (x - g r' y)/(g den) + (2y/den) xi'
    L, rp = trip.gamma_I3, Dp % 2
    gens = []
    for x, y in L.rows():
        xn, yn = x - g * rp * y, 2 * y
        if xn % (g * L.den) or yn % L.den:
            raise InvariantError("J must be integral over the multiplier order")
        gens.append((xn // (g * L.den), yn // L.den))
    J = ideal_from_generators(Dp, gens)
    if J.norm != g:
        raise InvariantError("N(J) = %d differs from g = %d" % (J.norm, g))
    if not is_invertible(J):
        raise InvariantError("J = %s is not invertible" % (J,))
    return Dp, g, J


# ---------------------------------------------------------------------------
# The two global counts

def rhs_count(D: int) -> int:
    """Number of invertible cube-class ideals J of norm g in orders O_{D'}
    over all factorizations D' g^2 = D, weighted by |Pic(O_{D'})[3]|."""
    if not in_discs(D):
        raise ValueError("not a discriminant")
    return _cube_ideal_sum(D)


def _cube_ideal_sum(D: int, prime_to_3: bool = False) -> int:
    """The ideal side shared by `rhs_count` and `check_prop_3notdiv`: over
    all factorizations D' g^2 = D (only g prime to 3 if prime_to_3), the
    number of invertible ideals of norm g of O_{D'} in cube classes, times
    |Pic(O_{D'})[3]|."""
    total = 0
    # D / g^2 is a discriminant exactly when g divides the conductor
    for g in divisors(fundamental_part(D)[1]):
        if g % 3 or not prime_to_3:
            Dp = D // (g * g)
            G = picard_group(Dp)
            cubes = sum(1 for J in ideals_of_norm(Dp, g, invertible_only=True) if G.is_cube(G.class_of(J)))
            total += cubes * G.three_torsion()
    return total


def rhs_identity_check(D: int) -> dict:
    lhs = Fraction(rhs_count(D))
    rhs = 2 * weight_w(D) * weight_eta(D) * h_value(D, zmat_variant=True)
    return report("rhs", D, lhs, rhs)


def splitting_type_from_char(chi: Mu3Char, p: int) -> str:
    """Splitting type at p of the cubic algebra attached to a primitive
    character of conductor d on Pic(O_{D0 d^2})."""
    D0, d = fundamental_part(chi.D)
    if primitive_char(chi).D != chi.D:
        raise ValueError("character must be primitive on its own order")
    if d % p == 0:
        return "1^3"
    if D0 % p == 0:
        return "1^2 1"
    if kronecker(D0, p) == -1:
        return "12"
    primes = [I for I in ideals_of_norm(chi.D, p, invertible_only=True)]
    if len(primes) != 2:
        raise InvariantError("split prime %d has %d ideals above it in O_%d" % (p, len(primes), chi.D))
    return "111" if chi(primes[0]) == 0 else "3"


def has_cubefree_conductor(D: int) -> bool:
    """D is a discriminant and the conductor of O_D is cubefree."""
    return in_discs(D) and all(e < 3 for e in factorize(fundamental_part(D)[1]).values())


def lhs_count(D: int) -> int:
    """Character-side count: over all chi on Pic(O_D), the number of index
    m/cond(chi) subrings of the attached cubic ring, from local splitting
    types; m is the conductor of O_D.  The identity is proved for cubefree
    m, so other conductors are rejected; `_character_sum` evaluates the sum
    at any D (it has matched 2 w h on every case tried)."""
    if not in_discs(D):
        raise ValueError("not a discriminant")
    if not has_cubefree_conductor(D):
        raise ValueError("conductor must be cubefree")
    return _character_sum(D)


def _character_sum(D: int) -> int:
    """The sum of lhs_count at a discriminant D, whatever its conductor."""
    m = fundamental_part(D)[1]
    total = 0
    for chi in mu3_characters(D):
        chi_prim = primitive_char(chi)
        m1 = m // fundamental_part(chi_prim.D)[1]
        term = 1
        for p, v in factorize(m1).items():
            term *= s_sequence(splitting_type_from_char(chi_prim, p), p, v)
        total += term
    return total


def lhs_identity_check(D: int) -> dict:
    lhs = Fraction(lhs_count(D))
    rhs = 2 * weight_w(D) * h_value(D)
    return report("lhs", D, lhs, rhs)


def check_fields_pic(D: int) -> dict:
    """Count cubic fields whose discriminant squarely divides D against
    (|Pic(O_D)[3]| - 1)/2."""
    if not in_discs(D):
        raise ValueError("not a discriminant")
    fields = 0
    for k in divisors(fundamental_part(D)[1]):
        for orb in _orbits_at(D // (k * k), False):
            if _is_field_form(orb.form):
                fields += 1
    t3 = pic_3_torsion(D)
    if t3 % 2 == 0:
        raise InvariantError("|Pic(O_%d)[3]| = %d is even" % (D, t3))
    expected = (t3 - 1) // 2
    return report("fields-pic", D, Fraction(fields), Fraction(expected))


def _is_field_form(form) -> bool:
    return is_irreducible(form) and is_maximal(form)


def is_irreducible(form) -> bool:
    """No rational projective root (degree 3: reducible iff a linear factor)."""
    a, b, c, d = form
    if a == 0:
        return False
    if d == 0:
        return False
    qs = divisors(abs(a))
    for k in divisors(abs(d)):
        for p in (k, -k):
            for q in qs:
                if gcd(p, q) != 1:
                    continue
                if a * p ** 3 + b * p * p * q + c * p * q * q + d * q ** 3 == 0:
                    return False
    return True


def check_prop_3notdiv(D: int) -> dict:
    """For 3 not dividing D: 6 w_{-3D} eta_{-3D} h(D) equals the ideal-side
    sum for discriminant -27 D restricted to factorizations with 3 ∤ g."""
    if D % 3 == 0:
        raise ValueError("requires 3 coprime to the discriminant")
    if not in_discs(D):
        raise ValueError("not a discriminant")
    total = _cube_ideal_sum(-27 * D, prime_to_3=True)
    lhs = 6 * weight_w(-3 * D) * weight_eta(-3 * D) * h_value(D)
    return report("prop6", D, lhs, Fraction(total))


def check_scholz(D0: int) -> dict:
    """3-torsion ratio between the class groups of discriminant -3*D0 and
    D0 lies in {3, 1} for D0 > 1 and {1, 1/3} for D0 < 0."""
    if not is_fundamental(D0) or D0 == 1:
        raise ValueError("need a fundamental discriminant different from 1")
    refl, _ = fundamental_part(-3 * D0)
    ratio = Fraction(pic_3_torsion(refl), pic_3_torsion(D0))
    allowed = (Fraction(3), Fraction(1)) if D0 > 1 else (Fraction(1), Fraction(1, 3))
    return report("scholz", D0, ratio, allowed, ratio in allowed)
