"""The package's records: value equality and hashing, immutability of the
frozen ones, per-instance mutable defaults and keyword construction."""

import copy
import pickle
from array import array

import pytest

from nilmat.config import DEFAULT, Config
from nilmat.congruence import CongruenceData
from nilmat.fields import QQ, FiniteField
from nilmat.groups import Elt, Enumeration
from nilmat.linalg import Matrix, Subspace
from nilmat.nilpotency import SylowSystem, Verdict
from nilmat.poly import Poly
from nilmat.structure import StructureReport
from nilmat.witness import WItem, Witness

F5, F7 = FiniteField(5), FiniteField(7)


def mat(rows, F=F5):
    return Matrix.from_ints(F, rows)


def value_cases():
    """(a, an equal copy of a built apart, a with one field changed)."""
    m = mat([[1, 2], [3, 4]])
    return [
        (m, mat([[1, 2], [3, 4]]), mat([[1, 2], [3, 0]])),
        (m, mat([[1, 2], [3, 4]]), mat([[1, 2], [3, 4]], F7)),
        (Poly.from_ints(F5, [1, 2, 3]), Poly.from_ints(F5, [1, 2, 3]), Poly.from_ints(F5, [1, 2, 4])),
        (Elt(m, ((0, 1),)), Elt(mat([[1, 2], [3, 4]]), ((0, 1),)), Elt(m, ((0, -1),))),
        (
            Subspace.from_vectors(QQ, 2, [(1, 1)]),
            Subspace.from_vectors(QQ, 2, [(2, 2)]),
            Subspace.from_vectors(QQ, 2, [(1, 0)]),
        ),
        (WItem("x", m, ((0, 1),)), WItem("x", mat([[1, 2], [3, 4]]), ((0, 1),)), WItem("y", m, ((0, 1),))),
        (WItem("x", data={"k": 1}), WItem("x", data={"k": 1}), WItem("x", data={"k": 2})),
        (
            Witness("k", "input", (), "n"),
            Witness(kind="k", context="input", items=(), note="n"),
            Witness("k", "image", (), "n"),
        ),
        (Config(seed=3), DEFAULT.with_(seed=3), Config(seed=4)),
        (CongruenceData(QQ, (2,), 5, F5), CongruenceData(QQ, (2,), 5, F5), CongruenceData(QQ, (2,), 7, F7)),
    ]


@pytest.mark.parametrize("a,b,c", value_cases())
def test_records_compare_and_hash_by_value(a, b, c):
    assert a is not b and a == b and not (a != b)
    assert a != c and not (a == c)
    if isinstance(a, (WItem, CongruenceData)):
        # a dict field (data, checks) makes the record unhashable, as it made the dataclass
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2
    # another class is never equal, even with the same field values
    other = Poly(F5, a.rows) if isinstance(a, Matrix) else Matrix(F5, ((1,),))
    assert a != other and not (a == other) and a != tuple(getattr(a, f) for f in a._fields)
    assert copy.copy(a) == a and copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("a,b,c", value_cases())
def test_frozen_records_refuse_assignment(a, b, c):
    name = type(a)._fields[0]
    before = getattr(a, name)
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, name) is before and a == b


def test_mutable_defaults_are_per_instance():
    makers = {
        "data": lambda: WItem("x"),
        "checks": lambda: CongruenceData(QQ, (), 5, F5),
        "artifacts": lambda: Verdict(True),
        "enums": lambda: SylowSystem({}, {}),
        "notes": lambda: StructureReport(nilpotent=True),
    }
    for name, make in makers.items():
        a, b = make(), make()
        x = getattr(a, name)
        assert x is not getattr(b, name) and not x, name
        x.append(1) if isinstance(x, list) else x.update(k=1)
        assert not getattr(b, name) and not getattr(make(), name), name


def test_keyword_construction_and_defaults():
    d = {"closure_cap": 9, "seed": 2, "prime_override": 11}
    cfg = Config(**d)
    assert (cfg.closure_cap, cfg.seed, cfg.prime_override) == (9, 2, 11)
    assert cfg.with_(seed=5) == Config(9, 5, 11) and cfg.seed == 2
    assert DEFAULT.with_() == DEFAULT == Config() and DEFAULT.with_(prime_override=3).prime_override == 3
    with pytest.raises(TypeError):
        DEFAULT.with_(no_such_field=1)
    rep = StructureReport(nilpotent=False, route="r")
    assert (rep.nilpotent, rep.finite, rep.primary_is_extension, rep.route, rep.notes) == (False, None, False, "r", [])
    rep.order = 8    # a mutable record takes assignment
    assert rep.order == 8
    bad = (lambda: Config(1, 2, 3, 4), lambda: Config(1, closure_cap=1), lambda: Verdict(), lambda: WItem(lbl="x"))
    for make in bad:
        with pytest.raises(TypeError):
            make()
    assert repr(Config()) == "Config(closure_cap=100000, seed=0, prime_override=None)"


def test_mutable_records_equality():
    assert Verdict(True) == Verdict(True, None, {}) and Verdict(True) != Verdict(False)
    with pytest.raises(TypeError):
        hash(Verdict(True))
    # the Sylow test's enumerations take no part in a system's equality or repr
    a, b = SylowSystem({2: []}, {2: 1}, enums={2: object()}), SylowSystem({2: []}, {2: 1})
    assert a == b and "enums" not in repr(a)
    e1 = Enumeration(None, [0], array("i"), array("i"), array("i"), 1)
    e2 = Enumeration(None, [0], array("i"), array("i"), array("i"), 1)
    assert e1 == e1 and e1 != e2 and len({e1, e2}) == 2
