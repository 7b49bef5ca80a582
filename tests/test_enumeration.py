"""The Cayley enumeration engine against a Matrix-keyed reference, and the
field work it does."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import finite_field_corpus, q8_power_with_diagonal, rational_corpus, rational_finite_corpus

from reference import enumeration

from nilmat import groups, nilpotency
from nilmat.congruence import apply_congruence_group, select_modulus
from nilmat.fields import QQ, FiniteField, FunctionField, NumberField
from nilmat.groups import Elt, GroupSpec, enumerate_group, schreier_generators
from nilmat.linalg import Matrix, inverse
from nilmat.nilpotency import _prime_parts, is_nilpotent
from nilmat.testkit import gen_max_abs_irr_nilpotent


def _assert_same(gens, cap):
    """The engine's enumeration against the reference's, each vertex's
    matrix and word read on demand."""
    got = enumerate_group(gens, cap)
    ref = enumeration(gens, cap)
    assert len(got) == len(ref)
    for v in range(len(ref)):
        assert got.vertex(v) == ref.vertices[v] and got.word(v) == ref.words[v], v
    assert got.parents == ref.parents
    assert got.table == ref.table
    assert got.overflowed == ref.overflowed
    assert got.ngens == ref.ngens
    return got


def _assert_same_lifted(gens, cap, lift):
    """(enumeration, Schreier generators): _assert_same, then the lifted
    pass over the engine's table against the reference's lifted
    enumeration, matrices, words and order alike.  An overflowed
    enumeration has no kernel, and the pass refuses it (None)."""
    got = _assert_same(gens, cap)
    if got.overflowed:
        with pytest.raises(ValueError, match="complete enumeration"):
            schreier_generators(got, lift)
        return got, None
    kernel = schreier_generators(got, lift)
    assert kernel == enumeration(gens, cap, lift).schreier
    return got, kernel


def test_engine_matches_reference_on_finite_field_corpus():
    for entry in finite_field_corpus():
        got = _assert_same(list(entry.group.gens), 10**4)
        assert not got.overflowed, entry.name


def test_engine_matches_reference_on_congruence_images(monkeypatch):
    """Plain and lifted enumerations of the finite rational groups'
    congruence images, then every enumeration the verdict makes on the
    rational corpus, and every lifted pass over one (the image's Sylow
    subgroups lifted by their source parts)."""
    for entry in rational_finite_corpus():
        G = entry.group
        image = apply_congruence_group(G, select_modulus(G))
        assert not _assert_same(list(image.gens), 10**4).overflowed, entry.name
        _assert_same_lifted(list(image.gens), 10**4, G.elts())
    made, lifted = {}, []

    def checked(gens, cap):
        enum = _assert_same(gens, cap)
        made[enum] = gens, cap
        return enum

    def checked_lift(enum, lift):
        gens, cap = made[enum]
        lifted.append(enum)
        return _assert_same_lifted(gens, cap, lift)[1]

    monkeypatch.setattr(nilpotency, "enumerate_group", checked)
    monkeypatch.setattr(nilpotency, "schreier_generators", checked_lift)
    for entry in rational_corpus():
        assert is_nilpotent(entry.group).nilpotent == entry.nilpotent, entry.name
    assert len(lifted) >= len(rational_corpus()) // 2


def test_engine_matches_reference_when_overflowing_mid_row():
    d8 = [Matrix.from_ints(QQ, [[0, -1], [1, 0]]), Matrix.from_ints(QQ, [[1, 0], [0, -1]])]
    q8sq = list(q8_power_with_diagonal(2).gens)
    scalar = [Matrix.from_ints(QQ, [[2]])]
    lift = [Elt(g, ((i, 1),)) for i, g in enumerate(d8)]
    cases = ((d8, 7, True), (d8, 20, False), (d8, 1, True), (q8sq, 20, True), (q8sq, 45, True), (scalar, 10, True))
    for gens, cap, overflowed in cases:
        assert _assert_same(gens, cap).overflowed == overflowed, (len(gens), cap)
    for cap in (3, 7, 8):
        _assert_same_lifted(d8, cap, lift)


def test_engine_matches_reference_over_gf64_and_fallback_rows():
    """Byte rows over GF(64), the largest table field, and the tuple rows of
    the fallback over GF(3^4) and over GF(61) in degree 5, whole and
    overflowing, plain and lifted from block-diagonal sources diag(g_i, s_i)
    whose shears s_i break the generators' relations."""
    F64, F81, F61 = FiniteField(2, 6), FiniteField(3, 4), FiniteField(61)
    z = F64.multiplicative_generator()
    borel64 = [Matrix.diagonal(F64, (F64.pow(z, 9), F64.one)), Matrix.from_ints(F64, [[1, 1], [0, 1]])]
    q8_81 = [Matrix.from_ints(F81, g.rows) for g in q8_power_with_diagonal(1).gens]
    cycle = Matrix.from_ints(F61, [[int(c == (r + 1) % 5) for c in range(5)] for r in range(5)])
    sign = Matrix.diagonal(F61, (F61.from_int(-1),) + (F61.one,) * 4)
    for gens, order in ((borel64, 56), (q8_81, 8), ([cycle, sign], 160)):
        assert len(_assert_same(gens, 10**4)) == order
        shears = [Matrix.from_ints(g.field, [[1, 1], [0, 1]] if i % 2 else [[1, 0], [1, 1]]) for i, g in enumerate(gens)]
        lift = [Elt(_block_diagonal(g, s), ((i, 1),)) for i, (g, s) in enumerate(zip(gens, shears))]
        assert _assert_same_lifted(gens, 10**4, lift)[1]
        for cap in (order // 3, order - 1):
            assert _assert_same_lifted(gens, cap, lift)[0].overflowed


def _block_diagonal(a, b):
    F, n, m = a.field, a.n, b.n
    return Matrix.make(F, [list(r) + [F.zero] * m for r in a.rows] + [[F.zero] * n + list(r) for r in b.rows])


# small GF(q): q = 2, 3, 13 and 64 look up tables, 9, 16 and 27 also fold
# digits, and 81 takes the tuple-row fallback
_SMALL_FIELDS = [FiniteField(p, l) for p, l in ((2, 1), (3, 1), (13, 1), (3, 2), (2, 4), (3, 3), (2, 6), (3, 4))]


@st.composite
def _invertible(draw, F, n):
    """P L U with L unit lower and U upper triangular with a nonzero diagonal."""
    entry, unit = st.integers(0, F.q - 1), st.integers(1, F.q - 1)
    perm = draw(st.permutations(range(n)))
    low = [[1 if i == j else draw(entry) if j < i else 0 for j in range(n)] for i in range(n)]
    up = [[draw(unit) if i == j else draw(entry) if j > i else 0 for j in range(n)] for i in range(n)]
    P = Matrix.make(F, [[int(perm[i] == j) for j in range(n)] for i in range(n)])
    return P * Matrix.make(F, low) * Matrix.make(F, up)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_engine_matches_reference_on_random_small_gf_groups(data):
    """Random generator sets of degree 1-3 over small GF(q), with random
    caps that often overflow in the middle of a layer, plain and lifted
    from block-diagonal sources diag(g_i, h_i): vertices, words, parents,
    table and overflow agree with the reference, and so do the Schreier
    generators of a complete enumeration's lifted pass."""
    F = data.draw(st.sampled_from(_SMALL_FIELDS), label="field")
    n = data.draw(st.integers(1, 3), label="n")
    k = data.draw(st.integers(1, 3), label="k")
    gens = [data.draw(_invertible(F, n), label="g") for _ in range(k)]
    cap = data.draw(st.integers(1, 300), label="cap")
    m = data.draw(st.integers(1, 2), label="m")
    lift = [Elt(_block_diagonal(g, data.draw(_invertible(F, m), label="h")), ((i, 1),)) for i, g in enumerate(gens)]
    _assert_same(gens, cap)
    _assert_same_lifted(gens, cap, lift)


def _rows_multiplied(monkeypatch, gens):
    """(rows the row kernel multiplied, distinct rows, order, row type) of
    the group of `gens`, counted while enumerating it.  Each call of the
    field's row kernel is one row batch against all the generators side by
    side, one per `_RowAction.extend`."""
    field = gens[0].field
    row_kernel, extend = field.row_kernel, groups._RowAction.extend
    rows, batches, kinds = [], [], set()

    def counting_kernel(mats):
        ident, act, values = row_kernel(mats)

        def counting(batch):
            rows.append(len(batch))
            kinds.update(map(type, batch))
            out = act(batch)
            assert len(out) == len(mats) and all(len(prods) == len(batch) for prods in out)
            return out

        return ident, counting, values

    def counting_extend(self):
        batches.append(len(self.points) - self.done)
        extend(self)

    monkeypatch.setattr(field, "row_kernel", counting_kernel)
    monkeypatch.setattr(groups._RowAction, "extend", counting_extend)
    enum = enumerate_group(gens, 10**5)
    monkeypatch.undo()
    assert not enum.overflowed
    assert rows == batches
    (kind,) = kinds
    return sum(rows), len({r for v in range(len(enum)) for r in enum.vertex(v).rows}), len(enum), kind


def test_engine_field_work_follows_distinct_rows(monkeypatch):
    """Each distinct row is sent to the row kernel at most once, in one
    product per row batch for all the generators, against |P| k n rows for
    one full product per edge: on byte rows over GF(5) and GF(3), on
    the tuple rows of the fallback over GF(3^4), past the tables, and over
    GF(61) in degree 5, past n(p - 1) < 256, and on the integer rows of a
    rationally conjugated D8 over Q and of D16 over Q(sqrt2)."""
    G = gen_max_abs_irr_nilpotent(4, 5, 1)
    part = [x.mat for x in _prime_parts(G.elts())[0][2]]
    t = Matrix.from_ints(G.field, [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    tinv = inverse(t)
    F81, F61 = FiniteField(3, 4), FiniteField(61)
    q8sq = [Matrix.from_ints(F81, g.rows) for g in q8_power_with_diagonal(2).gens]
    cycle = Matrix.from_ints(F61, [[int(c == (r + 1) % 5) for c in range(5)] for r in range(5)])
    sign = Matrix.diagonal(F61, (F61.from_int(-1),) + (F61.one,) * 4)
    cases = [
        (part, 2048, bytes),
        ([t * g * tinv for g in part], 2048, bytes),
        (list(q8_power_with_diagonal(3).gens), 512, bytes),
        (q8sq, 64, tuple),
        ([cycle, sign], 160, tuple),
    ]
    d8 = [Matrix.from_ints(QQ, [[0, -1], [1, 0]]), Matrix.from_ints(QQ, [[1, 0], [0, -1]])]
    tq = Matrix.make(QQ, [[Fraction(1, 2), 3], [-2, Fraction(5, 3)]])
    K = NumberField((-2, 0, 1))
    h = (Fraction(0), Fraction(1, 2))
    rot = Matrix.make(K, [[h, K.neg(h)], [h, h]])
    cases += [
        ([inverse(tq) * g * tq for g in d8], 8, tuple),
        ([rot, Matrix.from_ints(K, [[1, 0], [0, -1]])], 16, tuple),
    ]
    for gens, order, kind in cases:
        multiplied, distinct, size, got_kind = _rows_multiplied(monkeypatch, gens)
        assert size == order and got_kind is kind
        assert multiplied <= distinct, (multiplied, distinct, size)


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
    """Lifted passes with nontrivial Schreier generators, and only those:
    whole congruence and evaluation images over Q, Q(sqrt2), Q(x) and
    GF(5)(x); and infinite groups over Q(sqrt2) lifted to themselves, whose
    enumerations overflow at the cap, so the pass refuses them."""
    groups = _nontrivial_kernel_groups()
    for name, G in groups:
        image = apply_congruence_group(G, select_modulus(G))
        got, kernel = _assert_same_lifted(list(image.gens), 10**4, G.elts())
        assert not got.overflowed, name
        assert kernel and not any(z.is_identity() for z in kernel), name
    for name, G in groups[:2]:
        for cap in (7, 20):
            got, kernel = _assert_same_lifted(list(G.gens), cap, G.elts())
            assert got.overflowed and len(got) == cap and kernel is None, name


def test_central_flags_match_commuting_vertices():
    """The central-vertex flags read off the Cayley table are exactly the
    vertices that commute with every generator, over the finite-field
    corpus; their count is the oracle's |Z|."""
    from nilmat.testkit import closure, oracle_invariants

    for entry in finite_field_corpus():
        gens = list(entry.group.gens)
        enum = enumerate_group(gens, 10**4)
        want = [all(enum.vertex(v) * g == g * enum.vertex(v) for g in gens) for v in range(len(enum))]
        assert [bool(c) for c in enum.central] == want, entry.name
        if entry.nilpotent:
            assert sum(enum.central) == oracle_invariants(closure(gens, 10**4))["center"], entry.name
