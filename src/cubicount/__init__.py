"""Exact enumeration of cubic rings by discriminant and mechanical
verification of the class-number identities that tie them to ideal
theory in quadratic orders."""

from .forms import (
    BinaryCubicForm,
    Hessian,
    UnimodularMatrix,
    act,
    canonicalize,
    disc,
    hessian,
    is_zmat,
    stabilizer_order,
)
from .rings import (
    CubicRing,
    is_maximal,
    is_maximal_at_p,
    max_zmat_subring,
    ring_from_form,
    splitting_type,
    subrings_of_index,
)
from .counting import (
    class_numbers,
    enumerate_orbits,
    h_value,
    s_sequence,
    subring_count,
    zeta_coefficients,
)
from .quad import (
    QuadIdeal,
    QuadOrder,
    fundamental_unit,
    ideals_of_norm,
    is_principal,
    mu3_characters,
    order,
    pic_3_torsion,
    picard_group,
    unit_cube_classes,
)
from .bridge import (
    extract_triple,
    lhs_count,
    rhs_count,
    splitting_type_from_char,
    triple_to_J,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
