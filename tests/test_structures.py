import json
import math

import numpy as np
import pytest

from crystalembed.errors import ParseError, ValidationError
from crystalembed.structures import (
    CrystalStructure,
    lattice_from_cell,
    parse_cif,
    parse_jsonl,
    serialize_jsonl,
)

from helpers import structures_equal

CUBIC_NA_CIF = """\
data_na_test
_cell_length_a 4.0
_cell_length_b 4.0
_cell_length_c 4.0
_cell_angle_alpha 90.0
_cell_angle_beta 90.0
_cell_angle_gamma 90.0
loop_
_atom_site_label
_atom_site_fract_x
_atom_site_fract_y
_atom_site_fract_z
Na 0.0 0.0 0.0
"""

ROCKSALT_ASYMMETRIC_CIF = """\
data_nacl
_cell_length_a 5.64
_cell_length_b 5.64
_cell_length_c 5.64
_cell_angle_alpha 90.0
_cell_angle_beta 90.0
_cell_angle_gamma 90.0
_symmetry_space_group_name_H-M 'F m -3 m'
loop_
_symmetry_equiv_pos_site_id
_symmetry_equiv_pos_as_xyz
1 'x, y, z'
2 '-x, -y, -z'
3 'x, y+1/2, z+1/2'
4 'x+1/2, y, z+1/2'
5 'x+1/2, y+1/2, z'
loop_
_atom_site_label
_atom_site_type_symbol
_atom_site_fract_x
_atom_site_fract_y
_atom_site_fract_z
Na1 Na 0.0 0.0 0.0
Cl1 Cl 0.5 0.5 0.5
"""


class TestParseCif:
    def test_cubic_cell_is_diagonal(self):
        s = parse_cif(CUBIC_NA_CIF)
        assert np.allclose(s.lattice, 4.0 * np.eye(3), atol=1e-12)
        assert list(s.atomic_numbers) == [11]
        assert s.id == "na_test"

    def test_coordinates_wrap_into_unit_cell(self):
        s = parse_cif(CUBIC_NA_CIF.replace("Na 0.0 0.0 0.0", "Na 1.25 0.0 0.0"))
        assert np.allclose(s.frac_coords[0], [0.25, 0.0, 0.0])

    def test_hexagonal_b_row(self):
        # independent evaluation of the cell-parameter convention
        text = CUBIC_NA_CIF.replace("_cell_length_a 4.0", "_cell_length_a 3.0")
        text = text.replace("_cell_length_b 4.0", "_cell_length_b 3.0")
        text = text.replace("_cell_length_c 4.0", "_cell_length_c 3.0")
        text = text.replace("_cell_angle_gamma 90.0", "_cell_angle_gamma 120.0")
        s = parse_cif(text)
        expected_b = np.array(
            [3.0 * math.cos(math.radians(120.0)), 3.0 * math.sin(math.radians(120.0)), 0.0]
        )
        assert np.allclose(expected_b, [-1.5, 2.598076211353316, 0.0], atol=1e-12)
        assert np.allclose(s.lattice[1], expected_b, atol=1e-12)

    def test_uncertainty_suffix_stripped(self):
        s = parse_cif(CUBIC_NA_CIF.replace("_cell_length_a 4.0", "_cell_length_a 4.0(2)"))
        assert s.lattice[0, 0] == 4.0

    def test_type_symbol_column_preferred(self):
        text = CUBIC_NA_CIF.replace(
            "_atom_site_label", "_atom_site_label\n_atom_site_type_symbol"
        ).replace("Na 0.0", "Na1 Na 0.0")
        s = parse_cif(text)
        assert list(s.atomic_numbers) == [11]

    @pytest.mark.parametrize("tag", ["_cell_length_a", "_cell_angle_gamma"])
    def test_missing_tag_raises(self, tag):
        broken = "\n".join(
            l for l in CUBIC_NA_CIF.splitlines() if not l.startswith(tag)
        )
        with pytest.raises(ParseError, match=tag):
            parse_cif(broken)

    def test_unknown_element_raises(self):
        with pytest.raises(ParseError, match="Qq"):
            parse_cif(CUBIC_NA_CIF.replace("Na 0.0", "Qq 0.0"))

    def test_nonpositive_length_raises(self):
        with pytest.raises(ValidationError):
            parse_cif(CUBIC_NA_CIF.replace("_cell_length_a 4.0", "_cell_length_a -1.0"))

    def test_angle_out_of_range_raises(self):
        with pytest.raises(ValidationError):
            parse_cif(
                CUBIC_NA_CIF.replace("_cell_angle_beta 90.0", "_cell_angle_beta 181.0")
            )

    def test_fractional_occupancy_rejected(self):
        text = CUBIC_NA_CIF.replace(
            "_atom_site_fract_z", "_atom_site_fract_z\n_atom_site_occupancy"
        ).replace("Na 0.0 0.0 0.0", "Na 0.0 0.0 0.0 0.5")
        with pytest.raises(ValidationError, match="occupancy"):
            parse_cif(text)

    def test_symmetry_generated_sites_rejected(self):
        # rock salt as asymmetric unit plus (some of) the Fm-3m operations;
        # read as a full cell it would hold 2 sites instead of 8
        with pytest.raises(ParseError, match=r"'-x, -y, -z'"):
            parse_cif(ROCKSALT_ASYMMETRIC_CIF)

    @pytest.mark.parametrize("loop", [
        "loop_\n_symmetry_equiv_pos_as_xyz\n'x, y, z'\n",
        "loop_\n_space_group_symop_id\n_space_group_symop_operation_xyz\n1 x,y,z\n",
    ])
    def test_identity_only_symmetry_loop_parses(self, loop):
        s = parse_cif(CUBIC_NA_CIF.replace("loop_\n", loop + "loop_\n", 1))
        assert list(s.atomic_numbers) == [11]

    def test_operation_loop_after_sites_rejected(self):
        loop = "loop_\n_space_group_symop_id\n_space_group_symop_operation_xyz\n" \
               "1 x,y,z\n2 x+1/2,y+1/2,z\n"
        with pytest.raises(ParseError, match=r"x\+1/2,y\+1/2,z"):
            parse_cif(CUBIC_NA_CIF + loop)


class TestLatticeFromCell:
    def test_degenerate_angles_raise(self):
        with pytest.raises(ValidationError, match="degenerate"):
            lattice_from_cell(3, 3, 3, 10.0, 170.0, 90.0)

    def test_orthogonal_cell_diagonal(self):
        lat = lattice_from_cell(2.0, 3.0, 4.0, 90.0, 90.0, 90.0)
        assert np.allclose(lat, np.diag([2.0, 3.0, 4.0]), atol=1e-12)


class TestJsonl:
    def test_roundtrip_identity(self):
        s = CrystalStructure(
            lattice=np.array([[4.1, 0.0, 0.0], [0.3, 3.9, 0.0], [0.1, -0.2, 5.2]]),
            frac_coords=np.array([[0.1, 0.2, 0.3], [0.7, 0.75, 0.9]]),
            atomic_numbers=np.array([26, 8]),
            label=1.234,
            id="t1",
        )
        again = parse_jsonl(serialize_jsonl(s))
        assert structures_equal(s, again)

    def test_roundtrip_odd_floats(self):
        rng = np.random.default_rng(5)
        s = CrystalStructure(
            lattice=np.eye(3) * 3.0 + rng.normal(0, 0.1, (3, 3)) * np.tri(3).T * 0,
            frac_coords=rng.random((4, 3)),
            atomic_numbers=rng.integers(1, 119, 4),
            label=float(rng.normal()),
            id="odd",
        )
        assert structures_equal(s, parse_jsonl(serialize_jsonl(s)))

    def test_length_mismatch_rejected(self):
        line = (
            '{"id": "x", "lattice": [4,0,0,0,4,0,0,0,4],'
            ' "frac_coords": [[0,0,0],[0.5,0.5,0.5]], "atomic_numbers": [11,17,8]}'
        )
        with pytest.raises(ValidationError):
            parse_jsonl(line)

    def test_label_optional(self):
        line = (
            '{"id": "x", "lattice": [4,0,0,0,4,0,0,0,4],'
            ' "frac_coords": [[0,0,0]], "atomic_numbers": [11]}'
        )
        assert parse_jsonl(line).label is None

    def test_malformed_json_is_parse_error(self):
        with pytest.raises(ParseError, match="malformed"):
            parse_jsonl("{not json")

    def test_bad_z_rejected(self):
        line = (
            '{"id": "x", "lattice": [4,0,0,0,4,0,0,0,4],'
            ' "frac_coords": [[0,0,0]], "atomic_numbers": [119]}'
        )
        with pytest.raises(ValidationError):
            parse_jsonl(line)

    @pytest.mark.parametrize("field, value, kind", [
        ("atomic_numbers", [11.7, 17], "integers"),
        ("atomic_numbers", [11.0, 17], "integers"),
        ("atomic_numbers", [True, 17], "integers"),
        ("atomic_numbers", ["11", "17"], "integers"),
        ("frac_coords", [[True, 0, 0], [0.5, 0.5, 0.5]], "numbers"),
        ("frac_coords", [[0, 0, 0], [0.5, "0.5", 0.5]], "numbers"),
        ("frac_coords", [[0, 0, 0], [0.5, None, 0.5]], "numbers"),
        ("lattice", [4, 0, 0, 0, 4, 0, 0, 0, False], "numbers"),
        ("lattice", ["4", 0, 0, 0, 4, 0, 0, 0, 4], "numbers"),
    ], ids=["z-float", "z-integral-float", "z-bool", "z-strings", "coord-bool",
            "coord-string", "coord-null", "lattice-bool", "lattice-string"])
    def test_arrays_hold_json_numbers(self, field, value, kind):
        record = {"id": "x", "lattice": [4, 0, 0, 0, 4, 0, 0, 0, 4],
                  "frac_coords": [[0, 0, 0], [0.5, 0.5, 0.5]],
                  "atomic_numbers": [11, 17]}
        assert parse_jsonl(json.dumps(record)).atomic_numbers.tolist() == [11, 17]
        record[field] = value
        with pytest.raises(ValidationError,
                           match=f"field '{field}' must hold JSON {kind}"):
            parse_jsonl(json.dumps(record))

    @pytest.mark.parametrize("field", ["lattice", "frac_coords"])
    def test_ragged_or_deep_arrays_are_validation_errors(self, field):
        record = {"id": "x", "lattice": [4, 0, 0, 0, 4, 0, 0, 0, 4],
                  "frac_coords": [[0, 0, 0]], "atomic_numbers": [11]}
        # a bool below a ragged level, and nesting as deep as json takes
        for value in ([[True, 0, 0], 1], json.loads("[" * 900 + "1" + "]" * 900)):
            record[field] = value
            with pytest.raises(ValidationError, match="malformed array field"):
                parse_jsonl(json.dumps(record))

    def test_golden_lines(self):
        for s, golden in GOLDEN_CASES:
            assert serialize_jsonl(s) == golden
            assert structures_equal(parse_jsonl(golden), s)


class TestInvariants:
    def test_negative_determinant_rejected(self):
        with pytest.raises(ValidationError, match="determinant"):
            CrystalStructure(
                lattice=-np.eye(3),
                frac_coords=np.zeros((1, 3)),
                atomic_numbers=np.array([1]),
            )

    def test_empty_structure_rejected(self):
        with pytest.raises(ValidationError):
            CrystalStructure(
                lattice=np.eye(3),
                frac_coords=np.zeros((0, 3)),
                atomic_numbers=np.array([], dtype=int),
            )

    def test_nonfinite_coord_rejected(self):
        with pytest.raises(ValidationError):
            CrystalStructure(
                lattice=np.eye(3),
                frac_coords=np.array([[np.nan, 0, 0]]),
                atomic_numbers=np.array([1]),
            )

    def test_wrap_on_construction(self):
        s = CrystalStructure(
            lattice=np.eye(3),
            frac_coords=np.array([[-0.25, 1.5, 2.0]]),
            atomic_numbers=np.array([6]),
        )
        assert np.allclose(s.frac_coords[0], [0.75, 0.5, 0.0])
        assert np.all(s.frac_coords >= 0) and np.all(s.frac_coords < 1)

    def test_random_roundtrip_many(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            from helpers import random_structure

            s = random_structure(rng)
            assert structures_equal(s, parse_jsonl(serialize_jsonl(s)))


GOLDEN_CASES = []  # filled below


def _golden(lattice, frac, numbers, label, sid, line):
    GOLDEN_CASES.append(
        (
            CrystalStructure(
                lattice=np.array(lattice),
                frac_coords=np.array(frac),
                atomic_numbers=np.array(numbers),
                label=label,
                id=sid,
            ),
            line,
        )
    )


_golden(
    [[4.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 4.0]],
    [[0.0, 0.0, 0.0]],
    [11],
    None,
    "g1",
    '{"id": "g1", "lattice": [4, 0, 0, 0, 4, 0, 0, 0, 4], '
    '"frac_coords": [[0, 0, 0]], "atomic_numbers": [11]}',
)
_golden(
    [[3.0, 0.0, 0.0], [-1.5, 2.598076211353316, 0.0], [0.0, 0.0, 5.0]],
    [[0.1, 0.2, 0.3], [0.5, 0.5, 0.5]],
    [26, 8],
    2.5,
    "g2",
    '{"id": "g2", "lattice": [3, 0, 0, -1.5, 2.598076211353316, 0, 0, 0, 5], '
    '"frac_coords": [[0.10000000000000001, 0.20000000000000001, 0.29999999999999999], '
    '[0.5, 0.5, 0.5]], "atomic_numbers": [26, 8], "label": 2.5}',
)
_golden(
    [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]],
    [[0.25, 0.75, 0.125]],
    [118],
    -0.5,
    "g3",
    '{"id": "g3", "lattice": [2, 0, 0, 0, 2, 0, 0, 0, 2], '
    '"frac_coords": [[0.25, 0.75, 0.125]], "atomic_numbers": [118], "label": -0.5}',
)
