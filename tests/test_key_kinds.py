"""Bytes keys against the tuple keys of orbits beyond BYTES_KEY_DEGREE.

Every orbit of the built-in data has at most 256 points, so its keys are byte
strings.  Patching the threshold below |O| forces the tuple keys of larger
orbits on the same data; both kinds must give the same groups, class tables,
centralizers and output bytes once keys are read as int tuples.
"""

import io

import pytest

from oracles import datum_to_text, rank_four_data
from orbev import weyl
from orbev.cli import main
from orbev.epoly import SPACES
from orbev.lattice_core import IntegerMatrix, NonCentralizingError
from orbev.orbifold_engine import (
    _class_polynomials,
    _dual_records,
    _duality_row,
    _group_data,
    _key_histogram,
    _record,
    class_contribution,
    duality_check,
    mirror_check,
    orbifold_e_polynomial,
)
from orbev.root_data import sl_quotient_datum
from orbev.weyl import (
    GroupError,
    centralizer,
    conjugacy_classes,
    dual_class_order,
    generate_group,
    schreier_sims_order,
)

ENGINE_CACHES = (orbifold_e_polynomial, mirror_check, duality_check, _group_data, _dual_records, _key_histogram,
                 _class_polynomials)
COMMANDS = (["compute", "--space", "mixed"], ["mirror-check", "--space", "mixed"], ["duality-check"])


@pytest.fixture(params=[bytes, tuple], ids=["bytes", "tuple"])
def kind(request, monkeypatch):
    """The key type under test; tuple keys are forced by a threshold below every orbit."""
    if request.param is tuple:
        monkeypatch.setattr(weyl, "BYTES_KEY_DEGREE", 0)
    return request.param


def as_tuples(keys):
    return tuple(map(tuple, keys))


def table_as_tuples(table):
    index = {tuple(k): i for k, i in table.class_index.items()}
    return as_tuples(table.group.keys), as_tuples(table.keys), table.sizes, index


def group_layer(datum):
    """The group layer of datum with every key read as a tuple, and the key type it used."""
    group = generate_group(datum.generators)
    table = conjugacy_classes(group)
    layer = {
        "elements": as_tuples(group.keys),
        "generators": as_tuples(group.generator_keys),
        "classes": table_as_tuples(table),
        "centralizers": [as_tuples(centralizer(group, k).keys) for k in table.keys],
        "dual_classes": tuple((i, tuple(k)) for i, k in dual_class_order(table).items()),
    }
    return type(group.keys[0]), layer


def cli_outputs(path):
    for cached in ENGINE_CACHES:
        cached.cache_clear()
    outputs = []
    for command, *options in COMMANDS:
        out = io.StringIO()
        code = main([command, "--group", "custom", str(path), *options], out=out)
        outputs.append((code, out.getvalue()))
    return outputs


@pytest.mark.parametrize("datum", rank_four_data(), ids=lambda d: d.label)
def test_tuple_fallback_gives_the_same_group_layer_and_output(monkeypatch, tmp_path, datum):
    path = tmp_path / "datum.txt"
    path.write_text(datum_to_text(datum), encoding="utf-8")
    kind, layer = group_layer(datum)
    output = cli_outputs(path)
    monkeypatch.setattr(weyl, "BYTES_KEY_DEGREE", 0)
    fallback_kind, fallback_layer = group_layer(datum)
    fallback_output = cli_outputs(path)
    for cached in ENGINE_CACHES:
        cached.cache_clear()
    assert (kind, fallback_kind) == (bytes, tuple)
    assert layer == fallback_layer
    assert output == fallback_output
    assert all(code in (0, 2) and text for code, text in output)


@pytest.mark.parametrize("datum", [d for d in rank_four_data() if d.label in ("SL(4)/Z2", "C3_ad", "rebased")],
                         ids=lambda d: d.label)
def test_keys_name_their_matrices(kind, datum):
    g = generate_group(datum.generators)
    assert type(g.keys[0]) is kind
    for k in g.keys:
        assert g.key(g.matrix(k)) == k
        assert g.dual_matrix(k) == g.matrix(k).inverse_transpose()
        # a matrix the action did not build is scanned, and gets a key of the same kind
        fresh = IntegerMatrix.from_rows([list(row) for row in g.matrix(k).entries], cols=datum.rank)
        assert type(g.key(fresh)) is kind and g.key(fresh) == k


def test_a_key_of_the_other_kind_is_refused(kind):
    group = generate_group(sl_quotient_datum(3, 1).generators)
    other = tuple if kind is bytes else bytes
    for k in group.keys:
        assert other(k) not in group.keys
        with pytest.raises(GroupError, match="key on a group of"):
            group.matrix(other(k))
        with pytest.raises(GroupError, match="key on a group of"):
            group.dual_matrix(other(k))
        with pytest.raises(GroupError, match="key on a group of"):
            centralizer(group, other(k))


def test_a_non_commuting_element_still_raises(kind):
    group = generate_group(sl_quotient_datum(3, 1).generators)
    w = sl_quotient_datum(3, 1).generators[0]
    for space in ("betti", "mixed"):
        with pytest.raises(NonCentralizingError):
            class_contribution(_record(w, group, group.key(w)), SPACES[space])
    with pytest.raises(NonCentralizingError):
        _duality_row(_record(w, group, group.key(w)))


def test_schreier_sims_reads_keys_of_either_kind(kind):
    group = generate_group(sl_quotient_datum(5, 1).generators)
    degree = len(group.action.points)
    for keys in (as_tuples(group.generator_keys), tuple(map(bytes, group.generator_keys))):
        assert schreier_sims_order(keys, degree) == group.order == 120
