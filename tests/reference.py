"""Reference code the tests check the library against: brute-force oracles
(the reduced-domain scans with per-d filters, stabilizer matrices, proper
stabilizer orders, superrings of index p, the maximal trace-divisible
subring and the self-balanced triple by ring arithmetic, ideal and
lattice products, the Picard representatives from a norm scan, the
Picard structure from ideal products, extension maps through
conductor-coprime representatives, character sums over ideals, the
Kronecker symbol, the field-form test by a rational-root search, the
reduced-domain predicate from its definitions) and small helpers that only tests call.  The library
holds only what the program runs; test_source enforces that.

Not collected by pytest (no test_ prefix); test files import it as
`reference`, which works because pytest puts tests/ on sys.path.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd, isqrt, lcm

from cubicount.bridge import RatLattice, SelfBalancedTriple
from cubicount.counting import _ceil_div, _i4root, _icbrt
from cubicount.forms import (
    BOUNDARY_MATRICES,
    MAT_ID,
    MAT_NEG,
    BinaryCubicForm,
    InvariantError,
    UnimodularMatrix,
    act,
    boundary_signature,
    disc,
    is_zmat,
    mat_mul,
    orbit_closure,
    reduce_form,
)
from cubicount.quad import (
    Mu3Char,
    PicGroup,
    QuadIdeal,
    _class_labels,
    _extension_map,
    _primitive_ideals,
    _smith,
    class_key,
    divisors,
    extend_ideal,
    factorize,
    fundamental_part,
    hnf2,
    ideal_form_coefficients,
    ideal_from_generators,
    ideals_of_norm,
    in_discs,
    make_ideal,
    order,
    picard_group,
    xgcd,
)
from cubicount.rings import CubicRing, is_maximal


# ---------------------------------------------------------------------------
# forms

def parse_form(text: str) -> BinaryCubicForm:
    """The form printed by str(BinaryCubicForm) as 'a,b,c,d'."""
    parts = [int(t.strip()) for t in text.split(",")]
    if len(parts) != 4:
        raise ValueError("expected 'a,b,c,d', got %r" % text)
    return BinaryCubicForm(*parts)


def is_reduced(form) -> bool:
    """Reduced, read off the definitions and no predicate of `forms`.
    disc > 0: the Hessian (t, s, r) = (b^2 - 3ac, bc - 9ad, c^2 - 3bd) has
    t >= 1 and |s| <= t <= r.  disc < 0, after replacing f by -f so that
    a > 0, or a = 0 < b: for a = 0, |c| <= b <= d; for a > 0, with
    f(x, 1) = a (x - theta)(x - w)(x - conj w), |Re w| <= 1/2 and |w| >= 1."""
    a, b, c, d = form
    D = disc(form)
    if D == 0:
        raise ValueError("degenerate form")
    if D > 0:
        t = b * b - 3 * a * c
        return t >= 1 and abs(b * c - 9 * a * d) <= t <= c * c - 3 * b * d
    if a < 0 or a == 0 and b < 0:
        a, b, c, d = -a, -b, -c, -d
    if a == 0:
        return abs(c) <= b <= d
    # theta + 2 Re w = -b/a, so |Re w| <= 1/2 is -1 - b/a <= theta <=
    # 1 - b/a; f(x, 1) has the one simple real root theta and a > 0, so
    # f(x, 1) <= 0 exactly for x <= theta: compare a^3 f(p/a, 1) at p/a
    def cube(p):
        return ((a * p + b * a) * p + c * a * a) * p + d * a ** 3

    if cube(-a - b) > 0 or cube(a - b) < 0:
        return False
    # the pairwise products of the roots are the roots of
    # y^3 - (c/a) y^2 + (b d/a^2) y - d^2/a^2, and |w|^2 = w conj w is its
    # one real root (theta w is not real unless d = theta = 0, and then
    # the others are 0): |w| >= 1 exactly when the cubic is <= 0 at y = 1
    return a * a - a * c + b * d - d * d <= 0


def stabilizer_matrices(form) -> list:
    """The full stabilizer of `form` in GL2(Z) (conjugated computation via
    the reduced representative, whose stabilizer lies in its boundary
    table entry)."""
    f, g = reduce_form(form)
    ginv = _mat_inverse(g)
    out = []
    for m in BOUNDARY_MATRICES[boundary_signature(f)]:
        if act(m, f) == f:
            out.append(mat_mul(ginv, mat_mul(m, g)))
    return out


def proper_stabilizer_order(orbit) -> int:
    """The number of det 1 matrices fixing the form of a counting.Orbit,
    from the breadth-first oracle, which only a nontrivial stabilizer
    needs."""
    if orbit.stabilizer_order == 1:
        return 1
    return orbit_closure(orbit.form).proper_stabilizer_order


def _mat_inverse(g) -> UnimodularMatrix:
    p, q, r, s = g
    det = p * s - q * r
    return UnimodularMatrix(s // det, -q // det, -r // det, p // det)


def random_unimodular(rng, steps: int = 8) -> UnimodularMatrix:
    """Small random word in the standard generators."""
    gens = (
        UnimodularMatrix(1, 0, 1, 1),
        UnimodularMatrix(1, 0, -1, 1),
        UnimodularMatrix(1, 1, 0, 1),
        UnimodularMatrix(0, 1, 1, 0),
        MAT_NEG,
    )
    g = MAT_ID
    for _ in range(steps):
        g = mat_mul(rng.choice(gens), g)
    return g


def scan_forms(scan, X, zmat):
    """The forms (a, b, c, d) of the d-intervals (a, b, c, lo, hi) that the
    reduced-domain scan counting._scan_pos or _scan_neg yields, in order."""
    for a, b, c, lo, hi in scan(X, zmat):
        for d in range(lo, hi + 1):
            yield a, b, c, d


# The reduced-domain scans with every condition on d tested per d: the d
# windows carry slack, and the a >= 1 negative scan a clamp capd.  The
# oracle for the exact d-intervals of counting._scan_pos and _scan_neg,
# which must yield the same forms in the same order.

def scan_pos_filtered(X, zmat):
    step = 3 if zmat else 1
    Pmax = isqrt(X)
    # a = 0: P = b^2, Q = bc, R = c^2 - 3bd
    for b in range(step, isqrt(Pmax) + 1, step):
        P = b * b
        for c in range(0, b + 1, step):
            Q = b * c
            Rhi = (3 * X + Q * Q) // (4 * P)
            # P <= c^2 - 3 b d <= Rhi
            dl = _ceil_div(c * c - Rhi, 3 * b)
            dh = (c * c - P) // (3 * b)
            for d in range(dl, dh + 1):
                R = c * c - 3 * b * d
                if R < P or abs(Q) > P:
                    continue
                D3 = 4 * P * R - Q * Q
                if D3 < 3 or D3 > 3 * X:
                    continue
                yield 0, b, c, d
    amax = isqrt((4 * isqrt(X)) // 27) + 2
    for a in range(1, amax + 1):
        a9 = 9 * a
        bmax = isqrt(Pmax) + (3 * a) // 2 + 2
        for b in range(0, bmax + 1, step):
            # 1 <= P = b^2 - 3ac <= Pmax
            cl = _ceil_div(b * b - Pmax, 3 * a)
            ch = (b * b - 1) // (3 * a)
            if zmat:
                cl += (-cl) % 3
            for c in range(cl, ch + 1, step):
                P = b * b - 3 * a * c
                if P < 1 or P > Pmax:
                    continue
                bc = b * c
                dl = _ceil_div(bc - P, a9)
                if b == 0 and dl < 0:
                    dl = 0
                dh = (bc + P) // a9
                cc = c * c
                for d in range(dl, dh + 1):
                    Q = bc - a9 * d
                    R = cc - 3 * b * d
                    if R < P or abs(Q) > P:
                        continue
                    D3 = 4 * P * R - Q * Q
                    if D3 < 3 or D3 > 3 * X:
                        continue
                    yield a, b, c, d


def scan_neg_filtered(X, zmat, box=False):
    """The negative scan with per-d filters.  With box, the a >= 1 forms
    come from the earlier, wider (b, c) box b <= a (tmax + 1) + 1,
    |c| <= a (vmax + tmax) + 1, with tmax = T + isqrt(M2) + 2 and
    vmax = M2 + 1: the reference for the tight (b, c) window."""
    step = 3 if zmat else 1
    # a = 0 family: (0, b, c, d), b >= 1, 0 <= c <= b, d >= b
    bmax = _i4root(X // 3) + 2
    for b in range(step, bmax + 1, step):
        bb = b * b
        for c in range(0, b + 1, step):
            dhi = (X // bb + c * c) // (4 * b)
            for d in range(b, dhi + 1):
                D = bb * (c * c - 4 * b * d)
                if -X <= D <= -1:
                    yield 0, b, c, d
    amax = _i4root((16 * X) // 27) + 1
    for a in range(1, amax + 1):
        a2 = a * a
        a3 = a2 * a
        a4 = a2 * a2
        T = _i4root(X // (3 * a4)) + 1
        M2 = _icbrt(X // (4 * a4)) + 1
        tmax = T + isqrt(M2) + 2
        vmax = M2 + 1
        capd = a * tmax * vmax + 1
        bmax = a * (tmax + 1) + 1 if box else a * T + (3 * a) // 2
        cmax = a * (vmax + tmax) + 1
        for b in range(0, bmax + 1, step):
            amb = a - b
            apb = a + b
            K1base = a * amb ** 3 + a * b * amb * amb
            K2base = -a * apb ** 3 + a * b * apb * apb
            clo, chi = (-(cmax // step) * step, cmax) if box else (-b, b + a * M2)
            for c in range(clo, chi + 1, step):
                # d window from the strip condition |Re w| <= 1/2
                K1 = K1base + a2 * c * amb
                K2 = K2base - a2 * c * apb
                dl = -(K1 // a3)
                dh = (-K2) // a3
                if dl > dh:
                    continue
                if b == 0 and dl < 0:
                    dl = 0
                # d window from disc >= -X, with slack
                bq = 18 * a * b * c - 4 * b ** 3
                gq = b * b * c * c - 4 * a * c ** 3
                a54 = 54 * a2
                e = bq * bq + 108 * a2 * gq
                dq = e + 108 * a2 * X
                if dq < 0:
                    continue
                rt = isqrt(dq)
                dl = max(dl, (bq - rt) // a54 - 1, -capd)
                dh = min(dh, (bq + rt) // a54 + 1, capd)
                if e >= 0:
                    rb = isqrt(e)
                    flanks = ((dl, min(dh, _ceil_div(bq - rb, a54) - 1)),
                              (max(dl, (bq + rb) // a54 + 1), dh))
                else:
                    flanks = ((dl, dh),)
                for lo, hi in flanks:
                    for d in range(lo, hi + 1):
                        D = -27 * a2 * d * d + bq * d + gq
                        if D > -1 or D < -X:
                            continue
                        # |w| >= 1
                        if d == 0:
                            if c < a:
                                continue
                        else:
                            val = -a * d ** 3 + a * b * d * d - a2 * c * d + a3 * d
                            if (val < 0) if d < 0 else (val > 0):
                                continue
                        yield a, b, c, d


# ---------------------------------------------------------------------------
# rings

_BASIS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def ring_power(ring: CubicRing, x, n: int):
    out = (1, 0, 0)
    for _ in range(n):
        out = ring.mul(out, x)
    return out


def is_irreducible(form) -> bool:
    """No rational projective root (degree 3: reducible iff a linear factor)."""
    a, b, c, d = form
    if a == 0 or d == 0:
        return False
    qs = divisors(abs(a))
    for k in divisors(abs(d)):
        for p in (k, -k):
            for q in qs:
                if gcd(p, q) == 1 and a * p ** 3 + b * p * p * q + c * p * q * q + d * q ** 3 == 0:
                    return False
    return True


def is_field_form(form) -> bool:
    """The form's ring is the maximal order of a cubic field: irreducible
    and maximal.  Both are GL2(Z)-invariant.  The oracle for the field rule
    of counting's fields-only sixths table, which tests no irreducibility."""
    return is_irreducible(form) and is_maximal(form)


def trace_pairing_disc(ring: CubicRing) -> int:
    m = [[ring.trace(ring.mul(u, v)) for v in _BASIS] for u in _BASIS]
    return det3(m)


def is_associative(ring: CubicRing) -> bool:
    for u in _BASIS:
        for v in _BASIS:
            for w in _BASIS:
                if ring.mul(ring.mul(u, v), w) != ring.mul(u, ring.mul(v, w)):
                    return False
    return True


def sublattice_members(tri, vec) -> bool:
    """Membership of vec in the lattice whose rows tri are in row-echelon
    form (pivot of row i in column i, zeros to the left)."""
    v = list(vec)
    n = len(v)
    for i in range(n):
        if v[i] % tri[i][i]:
            return False
        q = v[i] // tri[i][i]
        for k in range(n):
            v[k] -= q * tri[i][k]
    return not any(v)


def superrings_of_index_p(ring: CubicRing, p: int):
    """Index-p overrings inside C (x) Q: lattices (C + Z*(v/p)) containing
    1, closed under multiplication, with integral multiplication table.
    The brute-force converse oracle to is_maximal_at_p only when p does not
    divide the form: p times a form inert at p, such as (2, 0, 2, 2) at 2,
    has an overring of index p^2 but none of index p."""
    out = []
    seen = set()
    for x0 in range(p):
        for x1 in range(p):
            for x2 in range(p):
                if (x0, x1, x2) == (0, 0, 0):
                    continue
                key = _proj_normalize((x0, x1, x2), p)
                if key in seen:
                    continue
                seen.add(key)
                v = key
                # lattice basis over Q: 1, alpha, beta, v/p
                if _superlattice_is_ring(ring, v, p):
                    out.append(v)
    return out


def _proj_normalize(v, p):
    for i in range(3):
        if v[i] % p:
            inv = pow(v[i], -1, p)
            return tuple((x * inv) % p for x in v)
    raise InvariantError("zero vector has no projective point mod %d" % p)


def _superlattice_is_ring(ring, v, p):
    # L = Z^3 + Z * (v/p); closed under multiplication iff v*v/p^2 and
    # v*e_i/p lie in L, i.e. numerators vanish appropriately mod p.
    vv = ring.mul(v, v)
    # v/p * v/p = vv/p^2 must lie in L: vv ≡ k*v mod p for some k, and then
    # (vv - k v)/p^2... handled by checking vv ≡ k v (mod p) and
    # (vv - k v)/p in L i.e. ≡ k' v mod p.
    for e in ((0, 1, 0), (0, 0, 1)):
        ve = ring.mul(v, e)
        if not _in_mod_line(ve, v, p):
            return False
    if not _in_mod_line_sq(ring, vv, v, p):
        return False
    return True


def _in_mod_line(w, v, p):
    # w ≡ t*v (mod p) for some t
    for t in range(p):
        if all((w[i] - t * v[i]) % p == 0 for i in range(3)):
            return True
    return False


def _in_mod_line_sq(ring, w, v, p):
    # w/p^2 in Z^3 + Z*(v/p)  <=>  w = 0 mod p and w/p = k*v mod p
    if any(x % p for x in w):
        return False
    w2 = tuple(x // p for x in w)
    return _in_mod_line(w2, v, p)


def lattice_ring(ring: CubicRing, basis_rows) -> CubicRing:
    """Interpret a full-rank multiplicatively closed sublattice (rows starting
    with a vector proportional to 1) as a CubicRing: renormalize to a normal
    basis with positive determinant and read off the structure form."""
    b0, b1, b2 = ([list(r) for r in basis_rows])
    if b0[1] or b0[2] or abs(b0[0]) != 1:
        raise InvariantError("first basis vector %r of a subring is not +-1" % (b0,))
    if b0[0] < 0:
        b0 = [-x for x in b0]
    det = det3([b0, b1, b2])
    if det < 0:
        b2 = [-x for x in b2]
        det = -det
    u, v = tuple(b1), tuple(b2)
    # normal basis: alpha*beta must be an integer
    prod = ring.mul(u, v)
    x, y = _solve2(u, v, prod)
    u = (u[0] - y * 1, u[1], u[2])
    v = (v[0] - x * 1, v[1], v[2])
    uu = ring.mul(u, u)
    uv = ring.mul(u, v)
    vv = ring.mul(v, v)
    cu = _solve2_full(u, v, uu)
    cv = _solve2_full(u, v, vv)
    cm = _solve2_full(u, v, uv)
    if cm[1] or cm[2]:
        raise InvariantError("not a normal basis: alpha beta = %r" % (cm,))
    # alpha^2 = l - b alpha + a beta ; beta^2 = n - d alpha + c beta
    b = -cu[1]
    a = cu[2]
    d = -cv[1]
    c = cv[2]
    form = BinaryCubicForm(a, b, c, d)
    sub = CubicRing(form, ring.orientation)
    # the table constants must be -ac, -ad, -bd
    if (cu[0], cm[0], cv[0]) != (-a * c, -a * d, -b * d):
        raise InvariantError("table constants %r do not match the form %r" % ((cu[0], cm[0], cv[0]), tuple(form)))
    return sub


def _solve2(u, v, w):
    """(x, y) with w = w0*1 + x*u + y*v in the alpha,beta coordinates."""
    det = u[1] * v[2] - u[2] * v[1]
    if det == 0:
        raise InvariantError("dependent vectors %r, %r" % (u, v))
    x_num = w[1] * v[2] - w[2] * v[1]
    y_num = u[1] * w[2] - u[2] * w[1]
    if x_num % det or y_num % det:
        raise InvariantError("%r is not an integer combination of %r, %r" % (w, u, v))
    return x_num // det, y_num // det


def _solve2_full(u, v, w):
    x, y = _solve2(u, v, w)
    const = w[0] - x * u[0] - y * v[0]
    return (const, x, y)


def max_zmat_subring_by_cubes(ring: CubicRing):
    """The largest subring whose elements all have trace in 3Z, as the
    lattice {x : x^3 in Z + 3C} read back through `lattice_ring`: the
    construction rings.max_zmat_subring replaced, kept as its oracle.
    Returns (subring, index, basis_rows)."""
    # the lattice holds 1 and 3C, and (x0 + x)^3 - x^3 lies in Z + 3C, so it
    # is 1 and the Hermite form of the (alpha, beta) parts of 3*alpha,
    # 3*beta and the x = x1*alpha + x2*beta, 0 <= x1, x2 < 3, that qualify
    gens = [(0, 3), (3, 0)]  # (x2, x1)
    for x1 in range(3):
        for x2 in range(3):
            cube = ring_power(ring, (0, x1, x2), 3)
            if cube[1] % 3 == 0 and cube[2] % 3 == 0:
                gens.append((x2, x1))
    a, b, c = hnf2(gens)
    basis = [(1, 0, 0), (0, c, b), (0, 0, a)]
    idx = det3(basis)
    if idx not in (1, 3, 9):
        raise InvariantError("trace-divisible subring of %r has index %d" % (tuple(ring.form), idx))
    sub = lattice_ring(ring, basis)
    if not is_zmat(sub.form):
        raise InvariantError("subring %r of %r is not trace-divisible" % (tuple(sub.form), tuple(ring.form)))
    if sub.discriminant != idx * idx * ring.discriminant:
        raise InvariantError("index-%d subring of %r has the wrong disc" % (idx, tuple(ring.form)))
    return sub, idx, basis


# ---------------------------------------------------------------------------
# quadratic orders

def parse_ideal(text: str) -> QuadIdeal:
    """The ideal printed by str(QuadIdeal) as 'g,a,b@D'."""
    left, D = text.split("@")
    g, a, b = (int(t) for t in left.split(","))
    return make_ideal(int(D), g, a, b)


def class_inverse(G: PicGroup, i: int) -> int:
    """The class inverse to class i, from its exponent vector."""
    return G._class_at([-x for x in G.vectors[i]])


def is_cube_class(I: QuadIdeal) -> bool:
    G = picard_group(I.D)
    return G.is_cube(G.class_of(I))


def is_fundamental_by_factoring(D: int) -> bool:
    """D = 1 mod 4 and squarefree, or D = 4q with q = 2 or 3 mod 4 and the
    odd part of q squarefree."""
    if not in_discs(D):
        return False
    if D % 4 == 1:
        return all(e == 1 for e in factorize(D).values())
    q = D // 4
    if q % 4 == 1:
        return False
    return all(e == 1 for p, e in factorize(q).items() if p != 2) and q % 4 in (2, 3)


def fundamental_part_by_search(D: int):
    """(D0, f) with D = D0 f^2: the largest divisor f of the square part of
    D with D / f^2 fundamental."""
    fmax = 1
    for p, e in factorize(D).items():
        fmax *= p ** (e // 2)
    for f in reversed(divisors(fmax)):
        if is_fundamental_by_factoring(D // (f * f)):
            return D // (f * f), f
    raise InvariantError("no fundamental decomposition for %d" % D)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), for any integers a and n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def first_ideals_by_norm(D: int):
    """The first primitive invertible ideal of each class of O_D, in order
    of norm, then b: a dict from the label of each class (see
    quad._class_labels) to its ideal, in the order met.  The scan stops
    once every class is met; a norm bound far above sqrt|D| guards the
    loop."""
    labels = _class_labels(D)
    h = len(set(labels.values()))
    first = {}
    for n in range(1, 40 * (isqrt(abs(D)) + 3)):
        for I in _primitive_ideals(D, n):
            first.setdefault(labels[class_key(I)], I)
            if len(first) == h:
                return first
    raise InvariantError("only %d of %d classes of D=%d met by the norm scan" % (len(first), h, D))


def ideal_conj(I: QuadIdeal) -> QuadIdeal:
    """The conjugate ideal: x + y xi goes to (x + r y) - y xi."""
    r = I.D % 2
    return ideal_from_generators(I.D, [(x + r * y, -y) for x, y in I.generators()])


def ideal_mul(I: QuadIdeal, J: QuadIdeal) -> QuadIdeal:
    """The product ideal, Hermite-reduced from the four products of
    generators."""
    if I.D != J.D:
        raise ValueError("ideals of different orders")
    o = order(I.D)
    return ideal_from_generators(I.D, [o.mul(u, v) for u in I.generators() for v in J.generators()])


def structure_by_products(reps, index):
    """(invariant factors, exponent vectors) of the classes of the ideals
    reps, with the group law read off ideal products and class_key: the
    construction the form composition of quad._structure replaced, kept as
    its oracle.  Cyclic subgroups are closed one class at a time and the
    relations go through a Smith normal form, as there."""
    D = reps[0].D
    h = len(reps)

    def cls(I):
        return index[class_key(I)]

    coords = [None] * h
    coords[0] = ()
    members = [0]
    relations = []
    for x in range(1, h):
        if coords[x] is not None:
            continue
        powers = [0]
        p = x
        while coords[p] is None:
            powers.append(p)
            if len(powers) > h:
                raise InvariantError("class %d of D=%d has no finite order" % (x, D))
            p = cls(ideal_mul(reps[p], reps[x]))
        relations.append([-c for c in coords[p]] + [len(powers)])
        for i in members:
            coords[i] += (0,)
        new = []
        for j, pj in enumerate(powers[1:], 1):
            coords[pj] = (0,) * (len(coords[0]) - 1) + (j,)
            new.append(pj)
            for i in members[1:]:
                k = cls(ideal_mul(reps[i], reps[pj]))
                if coords[k] is not None:
                    raise InvariantError("class products of D=%d are not a group law" % D)
                coords[k] = tuple(a + b for a, b in zip(coords[i], coords[pj]))
                new.append(k)
        members += new
        if cls(ideal_mul(reps[x], ideal_conj(reps[x]))) != 0:
            raise InvariantError("I conj(I) is not principal for I = %s" % (reps[x],))
    rank = len(coords[0])
    d, V = _smith([row + [0] * (rank - len(row)) for row in relations])
    keep = [k for k in range(rank) if d[k] > 1]
    vectors = [
        tuple(sum(c * V[l][k] for l, c in enumerate(v)) % d[k] for k in keep) for v in coords
    ]
    return tuple(d[k] for k in keep), tuple(vectors)


def coprime_ideal(I: QuadIdeal, f: int) -> QuadIdeal:
    """An invertible ideal of norm coprime to f in the class of the
    primitive invertible ideal I.  A primitive form properly represents a
    value coprime to any f (Cox, Primes of the form x^2 + ny^2, Lemma 2.25):
    take the first coprime (x, y) by |x| + |y| with F(x, y) coprime to f,
    for F = (t, s, r) the form of I, and move F(x, y) to the first
    coefficient by a matrix (x u; y v) of determinant 1.  The result
    (A, B, C) gives the ideal <|A|, (B - D mod 2)/2 mod |A|>; for A < 0 its
    form is (-A, B, -C), which lies in the same class of the wide group
    Pic.  Some (x, y) with x, y in [0, f) works (by the Chinese remainder
    theorem), so the search is bounded."""
    t, s, r = ideal_form_coefficients(I)
    for n in range(1, 2 * f + 1):
        for x in range(n, -1, -1):
            for y in (n - x, x - n) if x < n else (0,):
                A = t * x * x + s * x * y + r * y * y
                if gcd(x, y) != 1 or gcd(A, f) != 1:
                    continue
                _, v, w = xgcd(x, y)  # x v + y w = 1, so u = -w
                B = -2 * t * x * w + s * (x * v - y * w) + 2 * r * y * v
                return make_ideal(I.D, 1, abs(A), (B - I.D % 2) // 2 % abs(A))
    raise InvariantError("no value of %s is coprime to %d" % (I, f))


def extension_map_by_coprime_reps(Gf: PicGroup, Gt: PicGroup):
    """The extension map Gf -> Gt class by class: each representative is
    replaced by an ideal of its class of norm coprime to the conductor of
    Gf (where extension is the classical map of ideals prime to the
    conductor), which is extended.  The classes of those ideals are checked
    on the way."""
    f = fundamental_part(Gf.D)[1]
    out = []
    for i, R in enumerate(Gf.reps):
        C = R if gcd(R.norm, f) == 1 else coprime_ideal(R, f)
        if Gf.class_of(C) != i:
            raise InvariantError("coprime representative %s of D=%d is not in class %d" % (C, Gf.D, i))
        out.append(Gt.class_of(extend_ideal(C, Gt.D)))
    return tuple(out)


def order_change_map(D0: int, from_f: int, to_f: int):
    """Class map Pic(O_{D0 from_f^2}) -> Pic(O_{D0 to_f^2}) induced by
    extending ideals, as a list over class indices; requires to_f | from_f."""
    if from_f % to_f:
        raise ValueError("target conductor must divide the source conductor")
    return list(_extension_map(picard_group(D0 * from_f * from_f), picard_group(D0 * to_f * to_f)))


# ---------------------------------------------------------------------------
# lattices in Q(sqrt D) and triples, by a product and a Fraction Hermite
# form of their own: the triple oracle takes only the data types RatLattice
# and SelfBalancedTriple from bridge, none of its lattice code

def k2_product(D, u, v):
    """(x + y sqrt D)(x' + y' sqrt D) for u = (x, y) and v = (x', y')."""
    (x, y), (xp, yp) = u, v
    return x * xp + D * y * yp, x * yp + y * xp


def k2_norm(D, u):
    return u[0] * u[0] - u[1] * u[1] * D


def _over_common_den(vec):
    """(numerators, den): a rational vector (ints or Fractions) as integer
    numerators over the least common denominator."""
    den = lcm(*(v.denominator for v in vec))
    return tuple(v.numerator * (den // v.denominator) for v in vec), den


def _frac_gcd(x, y):
    while y:
        x, y = y, x % y
    return abs(x)


def fraction_hnf(gens):
    """(x1, x2, y2): rows (x1, 0), (x2, y2) with x1, y2 > 0, 0 <= x2 < x1,
    by Euclid on the Fraction generators."""
    flat = [x for x, y in gens if y == 0]
    tall = [(x, y) for x, y in gens if y != 0]
    while len(tall) > 1:
        tall.sort(key=lambda v: abs(v[1]))
        (px, py), rest = tall[0], []
        for x, y in tall[1:]:
            q = floor(y / py)
            if y - q * py:
                rest.append((x - q * px, y - q * py))
            else:
                flat.append(x - q * px)
        tall = [(px, py)] + rest
    (x2, y2), = tall
    if y2 < 0:
        x2, y2 = -x2, -y2
    x1 = Fraction(0)
    for x in flat:
        x1 = _frac_gcd(x1, x)
    return x1, x2 % x1, y2


def rat_lattice(D, gens) -> RatLattice:
    """The lattice spanned by the rational pairs gens (ints or Fractions):
    its `fraction_hnf` over the least common denominator, which leaves
    gcd(den, a, b, c) = 1."""
    nums, den = _over_common_den(fraction_hnf([(Fraction(x), Fraction(y)) for x, y in gens]))
    return RatLattice(D, den, *nums)


def lat_rows(L: RatLattice):
    """The two rows of L as Fraction pairs."""
    return [(Fraction(L.a, L.den), Fraction(0)), (Fraction(L.b, L.den), Fraction(L.c, L.den))]


def lat_mul(L: RatLattice, M: RatLattice) -> RatLattice:
    return rat_lattice(L.D, [k2_product(L.D, u, v) for u in lat_rows(L) for v in lat_rows(M)])


def lat_scale(L: RatLattice, el) -> RatLattice:
    """el * L for a rational pair el (ints or Fractions)."""
    return rat_lattice(L.D, [k2_product(L.D, el, v) for v in lat_rows(L)])


def lat_norm(L: RatLattice) -> Fraction:
    """Index-norm against O_D: twice the covolume in (1, sqrt D) coords."""
    return Fraction(2 * L.a * L.c, L.den * L.den)


def lat_contains(L: RatLattice, el) -> bool:
    """el = k (b, c)/den + j (a, 0)/den with integers k, j."""
    (x, y), den = _over_common_den(el)
    k, rem = divmod(y * L.den, den * L.c)
    return rem == 0 and (x * L.den - k * L.b * den) % (den * L.a) == 0


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


def extract_triple_by_ring(form, orientation: int = 1, skip: int = 0):
    """(triple, sqrt_num): the triple of an oriented trace-divisible ring by
    ring arithmetic, the extraction bridge.extract_triple replaced, kept as
    its oracle.  It scans primitive trace-zero alpha by increasing
    coordinate size, passes over the first skip generic ones, and solves
    the cubic x^3 + 3t x + u of the next by the cubic formula; sqrt_num is
    e times the ring coordinates of c(sqrt D), the image of sqrt D."""
    f = BinaryCubicForm(*form)
    if not is_zmat(f):
        raise ValueError("ring does not have all traces divisible by 3")
    Dring = disc(f)
    if Dring == 0:
        raise ValueError("degenerate ring")
    if Dring % 27:
        raise InvariantError("trace-divisible %r has disc %d not divisible by 27" % (tuple(f), Dring))
    D = -(Dring // 27)
    ring = CubicRing(f, orientation)
    for alpha in _alpha_candidates(f):
        tr2 = ring.trace(ring.mul(alpha, alpha))
        det = det3(((1, 0, 0), alpha, ring.mul(alpha, alpha)))
        if tr2 == 0 or det == 0:
            continue
        if skip == 0:
            return _triple_from_alpha(ring, D, alpha, tr2, det)
        skip -= 1
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
    I = rat_lattice(D, [(Fraction(x, den), Fraction(y, den)) for x, y in (x1, x2)])
    if I.a != I.den:
        raise InvariantError("1 must be a primitive vector of the extracted lattice")
    # tau = (b + c sqrt D)/den; choose its sign so that [1, alpha, c(tau)]
    # is positively oriented; this pins which of +-(t, s, r) the ring is
    # assigned.  c(tau) = (b e alpha + c vs)/(den e), so the orientation
    # is dd/(den e) for the determinant dd of the numerators.
    ctau = tuple(I.b * e * alpha[i] + I.c * vs[i] for i in range(3))
    dd = det3(((1, 0, 0), alpha, ctau))
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
    # discriminant exactly D
    num = s * s - D
    if num % (4 * t_att):
        raise InvariantError("4t does not divide s^2 - D")
    r = num // (4 * t_att)
    # gamma I^3 as gamma (I I I), by the lattice products here
    gamma_I3 = lat_scale(lat_mul(lat_mul(I, I), I), (Fraction(-u, 2), Fraction(e, 2)))
    trip = SelfBalancedTriple(D, I, t_att, s, r, u, e, tuple(alpha), gamma_I3)
    if not trip.norm_condition():
        raise InvariantError("balance norm condition failed")
    if not trip.containment_condition():
        raise InvariantError("gamma I^3 not inside the order")
    return trip, vs


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


def triples_equivalent(t1: SelfBalancedTriple, t2: SelfBalancedTriple, sqrt_num2):
    """For triples extracted from the same oriented ring with different
    generic elements, t2 with the image sqrt_num2 of sqrt D from
    `extract_triple_by_ring`: exhibit lambda with I2 = lambda I1 and
    gamma1 = lambda^3 gamma2 (the identification sending c1 to c2).
    Returns lambda or None."""
    if t1.D != t2.D:
        return None
    D = t1.D
    # lambda = c2^{-1}(c1(1)) = c2^{-1}(alpha1)
    (x, y), den = _solve_in_plane(t2.alpha, sqrt_num2, t2.e, t1.alpha)
    lam = (Fraction(x, den), Fraction(y, den))
    if k2_norm(D, lam) == 0:
        return None
    if lat_scale(t1.I, lam) != t2.I:
        return None
    lam3 = k2_product(D, k2_product(D, lam, lam), lam)
    if k2_product(D, lam3, t2.gamma) != tuple(t1.gamma):
        return None
    return lam


def chi_term_sum(chi: Mu3Char, m1: int):
    """Character sum over invertible ideals: sum over c'·f = m1 of
    sum_{I in O_{D1 c'^2}, invertible, norm f} omega^{chi(I)}, evaluated by
    extending I to the character's own order.  Returns an integer (the
    omega and omega^2 counts must agree)."""
    D1 = chi.D
    D0, base = fundamental_part(D1)
    counts = [0, 0, 0]
    for cp in divisors(m1):
        f = m1 // cp
        Dc = D1 * cp * cp
        for I in ideals_of_norm(Dc, f, invertible_only=True):
            J = extend_ideal(I, D1)
            counts[chi(J)] += 1
    if counts[1] != counts[2]:
        raise InvariantError("character sum not rational: omega %d times, omega^2 %d times" % (counts[1], counts[2]))
    return counts[0] - counts[1]
