"""Classical anchor values: class numbers and field counts that are
long-established in the literature, pinning the engine against data it
had no hand in producing."""

from cubicount.counting import orbit_table
from cubicount.quad import picard_group
from reference import is_field_form


def test_class_number_one_imaginary_fields():
    # the nine imaginary quadratic fields with trivial class group
    for D in (-3, -4, -7, -8, -11, -19, -43, -67, -163):
        assert len(picard_group(D)) == 1, D


def test_known_imaginary_class_numbers():
    known = {
        -15: 2, -20: 2, -23: 3, -24: 2, -31: 3, -35: 2,
        -39: 4, -40: 2, -47: 5, -71: 7, -84: 4,
    }
    for D, h in known.items():
        assert len(picard_group(D)) == h, D


def test_known_real_class_numbers():
    # small real fields have class number one; 229 and 257 are the first
    # with class number three
    for D in (5, 8, 12, 13, 17, 21, 24):
        assert len(picard_group(D)) == 1, D
    assert len(picard_group(229)) == 3
    assert len(picard_group(257)) == 3


def test_smallest_cubic_fields():
    # one cubic field each at the classical smallest discriminants;
    # the square-discriminant ones are cyclic (three automorphisms)
    expected = {-23: 1, -31: 1, -44: 1, 49: 3, 81: 3, 148: 1, 229: 1}
    for D, stab in expected.items():
        table = orbit_table(abs(D))
        fields = [o for o in table.get(D, []) if is_field_form(o.form)]
        assert len(fields) == 1, D
        assert fields[0].stabilizer_order == stab, D
    # and none at all below |disc| 23
    for D in range(-22, 23):
        if D == 0:
            continue
        table = orbit_table(22)
        assert not any(is_field_form(o.form) for o in table.get(D, [])), D
