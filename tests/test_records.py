"""The package's record types: value semantics, immutability, copies, and an import that never loads `dataclasses`."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from orbev.epoly import C_STAR, ELLIPTIC, PRIMAL, SPACES, BivariatePolynomial, PolynomialError, SpaceDescriptor
from orbev.lattice_core import IntegerMatrix, smith_normal_form
from orbev.orbifold_engine import _class_records, duality_check, mirror_check, orbifold_e_polynomial
from orbev.root_data import sl_quotient_datum
from orbev.sln_formula import Partition, partitions
from orbev.weyl import DEFAULT_CAP

SRC = Path(__file__).parent.parent / "src"


def records() -> list:
    """One instance of each of the package's eleven record types."""
    datum = sl_quotient_datum(3, 3)
    mirror = mirror_check(datum, SPACES["mixed"])
    duality = duality_check(datum)
    return [
        mirror.primal.contributions[1],
        _class_records(datum.generators, DEFAULT_CAP)[1],
        mirror.primal,
        mirror.pairs[1],
        mirror,
        duality.rows[1],
        duality,
        smith_normal_form(IntegerMatrix.from_rows([[2, 4], [6, 8]])),
        datum,
        SPACES["mixed"],
        partitions(4)[1],
    ]


def field_names(record) -> tuple[str, ...]:
    """A named tuple's fields, or a slotted class's slots, in constructor order."""
    return record._fields if isinstance(record, tuple) else type(record).__slots__


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
class TestRecordValues:
    def test_equal_fields_compare_and_hash_equal(self, record):
        copy = type(record)(*(getattr(record, name) for name in field_names(record)))
        assert copy is not record
        assert copy == record and hash(copy) == hash(record)

    def test_assignment_raises(self, record):
        with pytest.raises(AttributeError):
            setattr(record, field_names(record)[0], None)
        with pytest.raises(AttributeError):
            record.extra = None


class TestSpaceDescriptorValues:
    def test_equal_and_hashed_by_factors_alone(self):
        derham, dolbeault = SPACES["derham"], SPACES["dolbeault"]
        assert derham.name != dolbeault.name
        assert derham == dolbeault and hash(derham) == hash(dolbeault)

    def test_unknown_lattice_side_raises(self):
        with pytest.raises(PolynomialError, match="unknown lattice side"):
            SpaceDescriptor("x", ((ELLIPTIC, "sideways"),))

    def test_list_built_descriptor_is_the_tuple_built_one(self):
        listed = SpaceDescriptor("x", [(ELLIPTIC, PRIMAL), (C_STAR, PRIMAL)])
        tupled = SpaceDescriptor("y", ((ELLIPTIC, PRIMAL), (C_STAR, PRIMAL)))
        assert listed.factors == tupled.factors
        assert listed == tupled and hash(listed) == hash(tupled)
        datum = sl_quotient_datum(2, 1)
        assert orbifold_e_polynomial(datum, listed).total == orbifold_e_polynomial(datum, tupled).total

    def test_list_built_partition_is_the_tuple_built_one(self):
        assert Partition([2, 1, 1]).parts == (2, 1, 1)
        assert Partition([2, 1, 1]) == Partition((2, 1, 1))


@pytest.mark.parametrize("value", [
    IntegerMatrix.from_rows([[1, -2], [0, 3]]),
    IntegerMatrix.zero(2, 0),
    BivariatePolynomial({(0, 0): 1, (2, 1): -3}),
    SPACES["derham"],
    Partition((3, 1, 1)),
], ids=["IntegerMatrix", "empty-IntegerMatrix", "BivariatePolynomial", "SpaceDescriptor", "Partition"])
def test_immutable_values_copy_and_pickle(value):
    """copy, deepcopy and pickle rebuild the value through its constructor, every field included."""
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        assert [getattr(twin, name) for name in type(value).__slots__] == [
            getattr(value, name) for name in type(value).__slots__]
        with pytest.raises(AttributeError):
            setattr(twin, type(value).__slots__[0], None)


def test_mirror_report_and_datum_copy_and_pickle():
    datum = sl_quotient_datum(4, 2)
    report = mirror_check(datum, SPACES["mixed"])
    for value in (report, datum):
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


_PROBE = """
import io, sys
import orbev.cli
heavy = ("dataclasses", "inspect", "ast", "dis")
print(*[m for m in heavy if m in sys.modules])
for argv in (
    ["closed-form", "--n", "4", "--m", "2", "--surface", "betti"],
    ["mirror-check", "--group", "sl", "3", "3", "--space", "mixed"],
    ["duality-check", "--group", "classical", "B", "2", "sc"],
):
    assert orbev.cli.main(argv, io.StringIO()) == 0, argv
print(*[m for m in heavy if m in sys.modules])
"""


def test_running_orbev_loads_no_dataclasses_or_inspect():
    """A fresh interpreter (no site hooks) imports orbev.cli and runs three commands without these modules."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-S", "-c", _PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["", ""]
