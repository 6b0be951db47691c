"""Quadratic orders, their ideal lattices, and Picard groups.

Every discriminant D = 0, 1 mod 4 has exactly one quadratic ring O_D,
maximal or not, real or imaginary or split; all of them go through the
same generator xi with xi^2 = r xi - (r^2 - D)/4.  Ideals are triangular
lattices <g a, g(b + xi)>; invertible classes form the Picard group,
computed from reduced binary quadratic forms as a product of cyclic groups
(its invariant factors).  The exact principality search shown first is the
independent check of those classes.
"""

from cubicount.quad import (
    fundamental_unit,
    ideals_of_norm,
    is_principal,
    mu3_characters,
    conductor_of_char,
    order,
    pic_3_torsion,
    picard_group,
    unit_cube_classes,
)

print("Eisenstein order (disc -3): xi^2 = xi - 1;  norm(xi) =", order(-3).norm((0, 1)))
print("split order of disc 1: xi^2 = xi (idempotent generator)")

# norms and invertibility
print("\nideals of norm 2 in disc -23:", [str(I) for I in ideals_of_norm(-23, 2)])
flag, _ = is_principal(ideals_of_norm(-23, 2, invertible_only=True)[0])
print("norm-2 ideal principal?", flag)

# fundamental units through continued fractions (exact integers only)
for D in (5, 8, 20, 61, 229):
    x, y = fundamental_unit(D)
    r = D % 2
    print("fundamental unit of disc %3d: %d + %d*xi  (= (%d + %d sqrt %d)/2)"
          % (D, x, y, 2 * x + r * y, y, D))

# class groups, 3-torsion, unit cube classes
for D in (-3, -23, -47, 49, -108, 229):
    G = picard_group(D)
    print("\nPic(O_%d): order %d, invariant factors %s, 3-torsion %d, unit cube classes %d"
          % (D, len(G), list(G.invariants), pic_3_torsion(D), unit_cube_classes(D)))

# cubic characters and their conductors: disc -4 * 13^2 has class number 12
D = -4 * 169
chars = mu3_characters(D)
print("\ndisc %d: %d cubic characters; conductors %s"
      % (D, len(chars), sorted(conductor_of_char(c) for c in chars)))
