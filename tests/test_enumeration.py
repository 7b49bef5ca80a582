"""The Cayley enumeration engine against a Matrix-keyed reference, and the
field work it does."""

from fractions import Fraction

from corpus import finite_field_corpus, q8_power_with_diagonal, rational_corpus, rational_finite_corpus

from reference import enumeration

from nilmat import nilpotency, structure
from nilmat.congruence import apply_congruence_group, select_modulus
from nilmat.fields import QQ, FiniteField, FunctionField, NumberField
from nilmat.groups import Elt, GroupSpec, enumerate_group
from nilmat.linalg import Matrix, inverse
from nilmat.nilpotency import _prime_parts, is_nilpotent
from nilmat.testkit import gen_max_abs_irr_nilpotent


def _assert_same(gens, cap, lift=None):
    got = enumerate_group(gens, cap, lift)
    ref = enumeration(gens, cap, lift)
    assert got.vertices == ref.vertices
    assert got.words == ref.words
    assert got.parents == ref.parents
    assert got.table == ref.table
    assert got.overflowed == ref.overflowed
    assert got.ngens == ref.ngens
    assert got.schreier == ref.schreier
    return got


def test_engine_matches_reference_on_finite_field_corpus():
    for entry in finite_field_corpus():
        got = _assert_same(list(entry.group.gens), 10**4)
        assert not got.overflowed, entry.name


def test_engine_matches_reference_on_congruence_images(monkeypatch):
    """Plain and lifted enumerations of the finite rational groups'
    congruence images, then every enumeration the verdict makes on the
    rational corpus, lifted ones (the image's Sylow subgroups lifted by
    their source parts) included."""
    for entry in rational_finite_corpus():
        G = entry.group
        image = apply_congruence_group(G, select_modulus(G))
        assert not _assert_same(list(image.gens), 10**4).overflowed, entry.name
        _assert_same(list(image.gens), 10**4, lift=G.elts())
    lifted = []

    def checked(gens, cap, lift=None):
        lifted.append(lift is not None)
        return _assert_same(gens, cap, lift)

    for module in (nilpotency, structure):
        monkeypatch.setattr(module, "enumerate_group", checked)
    for entry in rational_corpus():
        assert is_nilpotent(entry.group).nilpotent == entry.nilpotent, entry.name
    assert sum(lifted) >= len(rational_corpus()) // 2


def test_engine_matches_reference_when_overflowing_mid_row():
    d8 = [Matrix.from_ints(QQ, [[0, -1], [1, 0]]), Matrix.from_ints(QQ, [[1, 0], [0, -1]])]
    q8sq = list(q8_power_with_diagonal(2).gens)
    scalar = [Matrix.from_ints(QQ, [[2]])]
    lift = [Elt(g, ((i, 1),)) for i, g in enumerate(d8)]
    cases = ((d8, 7, True), (d8, 20, False), (d8, 1, True), (q8sq, 20, True), (q8sq, 45, True), (scalar, 10, True))
    for gens, cap, overflowed in cases:
        assert _assert_same(gens, cap).overflowed == overflowed, (len(gens), cap)
    for cap in (3, 7, 8):
        _assert_same(d8, cap, lift=lift)


def _rows_multiplied(monkeypatch, gens):
    """(rows the field multiplied, distinct rows, order) of the group of
    `gens`, counted while enumerating it."""
    field = gens[0].field
    matmul = field.matmul
    rows = []

    def counting(a, b):
        rows.append(len(a))
        return matmul(a, b)

    monkeypatch.setattr(field, "matmul", counting)
    enum = enumerate_group(gens, 10**5)
    monkeypatch.undo()
    assert not enum.overflowed
    return sum(rows), len({r for m in enum.vertices for r in m.rows}), len(enum)


def test_engine_field_work_follows_distinct_rows(monkeypatch):
    """Each distinct row is multiplied once by each generator, so the rows
    sent to the field number at most k times the distinct rows, against
    |P| k n for one full product per edge."""
    G = gen_max_abs_irr_nilpotent(4, 5, 1)
    part = [x.mat for x in _prime_parts(G.elts())[0][2]]
    t = Matrix.from_ints(G.field, [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    tinv = inverse(t)
    cases = [(part, 2048), ([t * g * tinv for g in part], 2048), (list(q8_power_with_diagonal(3).gens), 512)]
    for gens, order in cases:
        multiplied, distinct, size = _rows_multiplied(monkeypatch, gens)
        assert size == order
        assert multiplied <= len(gens) * distinct, (multiplied, distinct, size)


def _nontrivial_kernel_groups():
    """(name, G) for groups whose congruence kernels are nontrivial, over Q,
    Q(sqrt2), Q(x) and GF(5)(x)."""

    def d8(F):
        return [Matrix.from_ints(F, [[0, -1], [1, 0]]), Matrix.from_ints(F, [[1, 0], [0, -1]])]

    def swap(F):
        return Matrix.from_ints(F, [[0, 1], [1, 0]])

    K = NumberField((-2, 0, 1))
    h, s2 = (Fraction(0), Fraction(1, 2)), (Fraction(0), Fraction(1))
    rot45 = Matrix.make(K, [[h, K.neg(h)], [h, h]])
    out = [
        ("D16x<sqrt2*I>", GroupSpec(K, [rot45, d8(K)[1], Matrix.diagonal(K, (s2, s2))])),
        ("diag(sqrt2,1)+swap", GroupSpec(K, [Matrix.diagonal(K, (s2, K.one)), swap(K)])),
    ]
    for ff in (FunctionField(QQ), FunctionField(FiniteField(5))):
        out.append((f"D8x<x*I>({ff.name()})", GroupSpec(ff, d8(ff) + [Matrix.diagonal(ff, (ff.x(), ff.x()))])))
    out.append(("diag(3,1)+swap", GroupSpec(QQ, [Matrix.from_ints(QQ, [[3, 0], [0, 1]]), swap(QQ)])))
    return out


def test_engine_matches_reference_on_nontrivial_kernels():
    """Lifted enumerations with nontrivial Schreier generators, and only
    those: whole congruence and evaluation images over Q, Q(sqrt2), Q(x)
    and GF(5)(x);
    and infinite groups over Q(sqrt2) lifted to themselves, whose lifted
    enumerations overflow at the cap."""
    groups = _nontrivial_kernel_groups()
    for name, G in groups:
        image = apply_congruence_group(G, select_modulus(G))
        got = _assert_same(list(image.gens), 10**4, lift=G.elts())
        assert not got.overflowed, name
        assert got.schreier and not any(z.is_identity() for z in got.schreier), name
    for name, G in groups[:2]:
        for cap in (7, 20):
            got = _assert_same(list(G.gens), cap, lift=G.elts())
            assert got.overflowed and len(got) == cap, name


def test_central_flags_match_commuting_vertices():
    """The central-vertex flags read off the Cayley table are exactly the
    vertices that commute with every generator, over the finite-field
    corpus; their count is the oracle's |Z|."""
    from nilmat.testkit import closure, oracle_invariants

    for entry in finite_field_corpus():
        gens = list(entry.group.gens)
        enum = enumerate_group(gens, 10**4)
        want = [all(v * g == g * v for g in gens) for v in enum.vertices]
        assert [bool(c) for c in enum.central] == want, entry.name
        if entry.nilpotent:
            assert sum(enum.central) == oracle_invariants(closure(gens, 10**4))["center"], entry.name
