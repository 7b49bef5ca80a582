"""Structural reports for nilpotent groups, all through analyze."""

import sys

from corpus import char0_groups, prime_part_groups

from nilmat.fields import QQ, FiniteField, FunctionField
from nilmat.groups import GroupSpec
from nilmat.linalg import Matrix
from nilmat.nilpotency import is_nilpotent
from nilmat.numth import factorint
from nilmat.structure import analyze
from nilmat.testkit import closure, gen_max_abs_irr_nilpotent, oracle_invariants


def _m(field, rows):
    return Matrix.from_ints(field, rows)


def d8():
    return GroupSpec(QQ, [_m(QQ, [[0, -1], [1, 0]]), _m(QQ, [[1, 0], [0, -1]])])


def heisenberg():
    return GroupSpec(
        QQ,
        [_m(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]), _m(QQ, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])],
    )


def test_is_finite_examples():
    rep = analyze(heisenberg())
    assert rep.finite is False and rep.route == "unipotent-part"
    assert rep.witness.kind == "nontrivial_unipotent_part"
    G2 = GroupSpec(QQ, [_m(QQ, [[2]])])
    rep2 = analyze(G2)
    assert rep2.finite is False and rep2.route == "congruence-kernel"
    assert rep2.witness.kind == "nontrivial_kernel_element"
    assert analyze(d8()).finite


def test_is_finite_requires_nilpotent():
    """A group that is not nilpotent gets its witness and no structural
    answer."""
    s3 = GroupSpec(
        QQ,
        [_m(QQ, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]), _m(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])],
    )
    rep = analyze(s3)
    assert not rep.nilpotent and rep.witness is not None
    assert rep.finite is None and rep.order is None and rep.completely_reducible is None
    assert rep.primary is None and rep.center_gens is None


def test_order_examples():
    assert analyze(GroupSpec(QQ, [Matrix.identity(QQ, 2)])).order == 1
    assert analyze(d8()).order == 8
    G32 = gen_max_abs_irr_nilpotent(2, 5, 1)
    assert analyze(G32).order == 32
    rep = analyze(GroupSpec(QQ, [_m(QQ, [[2]])]))
    assert rep.finite is False and rep.order is None


def test_order_matches_oracle_on_finite_corpus(ff_corpus, ff_oracle):
    for entry in ff_corpus:
        if not ff_oracle[entry.name]["nilpotent"]:
            continue
        assert analyze(entry.group).order == ff_oracle[entry.name]["order"], entry.name


def test_is_completely_reducible_examples():
    rep = analyze(d8())
    assert rep.completely_reducible and rep.cr_series_dims == [2, 0]
    rep2 = analyze(heisenberg())
    assert rep2.completely_reducible is False and rep2.cr_series_dims == [3, 2, 1, 0]
    assert analyze(GroupSpec(QQ, [_m(QQ, [[2, 2], [0, 2]])])).completely_reducible is False
    # char-p function fields are imperfect: no answer
    ffp = FunctionField(FiniteField(5))
    rep4 = analyze(GroupSpec(ffp, [Matrix.identity(ffp, 2)]))
    assert rep4.completely_reducible is None and rep4.cr_series_dims is None


def test_primary_decomposition_examples():
    F13 = FiniteField(13)
    rep = analyze(GroupSpec(F13, [_m(F13, [[2]])]))
    assert not rep.primary_is_extension and rep.primary.orders == {2: 4, 3: 3}
    rep8 = analyze(d8())
    sylow8 = rep8.primary
    assert not rep8.primary_is_extension and set(sylow8.orders) == {2} and sylow8.orders[2] == 8
    # pulled-back generators really generate the Sylow subgroup over Q
    c = closure([e.mat for e in sylow8.components[2]], 100)
    assert len(c) == 8
    Ginf = GroupSpec(QQ, [_m(QQ, [[2]])])
    rep_inf = analyze(Ginf)
    assert rep_inf.primary_is_extension and rep_inf.primary.components == {}
    assert len(rep_inf.primary.central_part) >= 1


def test_primary_infinite_components_use_small_primes_only():
    """Non-central components of an infinite nilpotent group only occur for
    primes up to the degree."""
    rot = _m(QQ, [[0, -1], [1, 0]])
    scaled = _m(QQ, [[0, -2], [2, 0]])  # infinite order, commutes with nothing extra
    refl = _m(QQ, [[1, 0], [0, -1]])
    G = GroupSpec(QQ, [scaled, refl])  # infinite dihedral-flavored 2-group times Z
    rep = analyze(G)
    assert rep.nilpotent and rep.primary_is_extension
    sylow = rep.primary
    assert all(p <= G.degree for p in sylow.components), sylow.components
    # central part is present and genuinely central in the diagonalizable part
    for z in sylow.central_part:
        for g in G.gens:
            assert z.mat * g == g * z.mat


def test_primary_cross_prime_commutation():
    F13 = FiniteField(13)
    G = GroupSpec(F13, [Matrix.diagonal(F13, (2, 1)), Matrix.diagonal(F13, (1, 2))])
    rep = analyze(G)
    sylow = rep.primary
    total = 1
    for p, o in sylow.orders.items():
        total *= o
    assert total == rep.order
    primes = sorted(sylow.components)
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            for x in sylow.components[p]:
                for y in sylow.components[q]:
                    assert x.mat * y.mat == y.mat * x.mat


def test_center_generators_examples():
    zs = analyze(d8()).center_gens
    mats = {z.mat for z in zs}
    assert _m(QQ, [[-1, 0], [0, -1]]) in mats
    for z in zs:
        for g in d8().gens:
            assert z.mat * g == g * z.mat
    # abelian group: the center is everything; generators map onto the group
    Gab = GroupSpec(QQ, [_m(QQ, [[0, -1], [1, 0]])])
    za = analyze(Gab).center_gens
    assert len(closure([z.mat for z in za], 10)) == 4
    G32 = gen_max_abs_irr_nilpotent(2, 5, 1)
    z32 = analyze(G32).center_gens
    c = closure([z.mat for z in z32], 100)
    oi = oracle_invariants(closure(list(G32.gens), 100))
    assert len(c) == oi["center"] == 4


def test_center_contains_oracle_center(ff_corpus, ff_oracle):
    checked = 0
    for entry in ff_corpus:
        oi = ff_oracle[entry.name]
        if not oi["nilpotent"]:
            continue
        rep = analyze(entry.group)
        if not rep.completely_reducible:
            continue
        zs = rep.center_gens
        zc = closure([z.mat for z in zs], 10**4)
        assert len(zc) == oi["center"], entry.name
        checked += 1
    assert checked >= 5


def _check_center(G, zs, size, name):
    """zs are central in G, replay from their words, generate a subgroup of
    order size, and number at most the count of prime factors of size."""
    for z in zs:
        assert G.evaluate(z.word) == z.mat, name
        assert all(z.mat * g == g * z.mat for g in G.gens), name
    assert len(closure([z.mat for z in zs], 10**4)) == size, name
    assert len(zs) <= max(1, sum(factorint(size).values())), name


def test_finite_center_matches_oracle(ff_corpus, ff_oracle):
    """analyze reads a finite group's center off its Sylow tables; on every
    nilpotent, completely reducible corpus group over GF(q) and Q it
    generates the oracle's center."""
    from corpus import rational_finite_corpus

    cases = [(e, ff_oracle[e.name]) for e in ff_corpus]
    cases += [(e, oracle_invariants(closure(list(e.group.gens), 10**4))) for e in rational_finite_corpus()]
    checked = 0
    for entry, oi in cases:
        if not oi["nilpotent"]:
            continue
        rep = analyze(entry.group)
        assert rep.nilpotent and rep.finite and rep.order == oi["order"], entry.name
        if not rep.completely_reducible:
            continue
        _check_center(entry.group, rep.center_gens, oi["center"], entry.name)
        checked += 1
    assert checked >= 60


def _signed_perm_sylow2():
    """The Sylow 2-subgroup of the signed permutation matrices of degree 4,
    of order 128."""

    def perm(images):
        return _m(QQ, [[1 if images[j] == i else 0 for j in range(4)] for i in range(4)])

    return GroupSpec(QQ, [Matrix.diagonal(QQ, (-1, 1, 1, 1)), perm([1, 2, 3, 0]), perm([2, 1, 0, 3])])


def test_known_finite_centers():
    """Centers of groups too large for the corpus."""
    from corpus import q8_power_with_diagonal, semidihedral

    cases = (
        ("max-irr(4,GF(5))", gen_max_abs_irr_nilpotent(4, 5, 1), 4),
        ("max-irr(6,GF(13))", gen_max_abs_irr_nilpotent(6, 13, 1), 12),
        ("signed-perm-Sylow2(4,Q)", _signed_perm_sylow2(), 2),
        ("Q8^4", q8_power_with_diagonal(4), 16),
        ("semidihedral(127)", semidihedral(127), 2),
    )
    for name, G, size in cases:
        rep = analyze(G)
        assert rep.finite and rep.completely_reducible, name
        _check_center(G, rep.center_gens, size, name)


def test_finite_analyze_builds_no_adjoint_representation():
    """A finite group's center comes from the Sylow tables, over GF(q), Q,
    Q(sqrt2) and Q(i) alike."""
    from fractions import Fraction

    from nilmat.fields import NumberField

    K = NumberField((-2, 0, 1))
    h = (Fraction(0), Fraction(1, 2))
    d16 = GroupSpec(K, [Matrix.make(K, [[h, K.neg(h)], [h, h]]), _m(K, [[1, 0], [0, -1]])])
    Ki = NumberField((1, 0, 1))
    c4wr = GroupSpec(Ki, [Matrix.diagonal(Ki, ((Fraction(0), Fraction(1)), Ki.one)), _m(Ki, [[0, 1], [1, 0]])])
    cases = (
        ("max-irr(2,GF(5))", gen_max_abs_irr_nilpotent(2, 5, 1), 32, 4),
        ("D8(Q)", d8(), 8, 2),
        ("signed-perm-Sylow2(4,Q)", _signed_perm_sylow2(), 128, 2),
        ("D16(Q(sqrt2))", d16, 16, 2),
        ("C4wrC2(Q(i))", c4wr, 32, 4),
    )
    for name, G, size, center in cases:
        rep = analyze(G)
        assert rep.finite and rep.order == size and rep.completely_reducible, name
        _check_center(G, rep.center_gens, center, name)


def test_center_generators_rejects_non_semisimple_generators():
    """Over Q a non-diagonalizable generator gets no center at once,
    instead of an enumeration of an infinite group; completely reducible
    groups keep their center, which lists no identity."""
    import time

    e13 = _m(QQ, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    for G in (heisenberg(), GroupSpec(QQ, [heisenberg().gens[0], e13, heisenberg().gens[1]])):
        t0 = time.monotonic()
        rep = analyze(G)
        assert rep.completely_reducible is False and rep.center_gens is None
        assert time.monotonic() - t0 < 1.0
    qi = _m(QQ, [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    qj = _m(QQ, [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
    for G in (d8(), GroupSpec(QQ, [qi, qj])):
        zs = analyze(G).center_gens
        assert not any(z.is_identity() for z in zs)
        minus_one = Matrix.identity(QQ, G.degree) * QQ.from_int(-1)
        assert minus_one in {z.mat for z in zs}
        assert len(closure([z.mat for z in zs], 10)) == 2


def test_infinite_primary_components_modulo_center():
    """An infinite group's components are those of its diagonalizable part
    modulo the center: D8 x <2I> gives D8/Z(D8), of order 4, and a scalar
    group gives none; a group that is not nilpotent gets no decomposition."""
    two = _m(QQ, [[2, 0], [0, 2]])
    rep = analyze(GroupSpec(QQ, list(d8().gens) + [two]))
    assert rep.finite is False and rep.primary_is_extension and rep.primary.orders == {2: 4}
    assert two in {z.mat for z in rep.primary.central_part}
    scal = analyze(GroupSpec(QQ, [two]))
    assert scal.primary.orders == {} and scal.primary.order == 1
    assert two in {z.mat for z in scal.primary.central_part}
    d31swap = analyze(GroupSpec(QQ, [_m(QQ, [[3, 0], [0, 1]]), _m(QQ, [[0, 1], [1, 0]])]))
    assert not d31swap.nilpotent and d31swap.primary is None


def test_analyze_enumerates_only_what_the_verdict_does(monkeypatch):
    """One analyze call makes exactly the Cayley enumerations, and the
    lifted passes over them, of its is_nilpotent call: every structural
    answer is read off the verdict."""
    from nilmat import groups as groups_module

    original, lifted_pass = groups_module.enumerate_group, groups_module.schreier_generators
    calls = []

    def recording(gens, cap):
        enum = original(gens, cap)
        calls.append((tuple(gens), cap, len(enum)))
        return enum

    def recording_lift(enum, lift):
        out = lifted_pass(enum, lift)
        calls.append((tuple(s.mat for s in lift), len(enum), tuple(z.mat for z in out)))
        return out

    for name, module in list(sys.modules.items()):
        if name.startswith("nilmat") and getattr(module, "enumerate_group", None) is original:
            monkeypatch.setattr(module, "enumerate_group", recording)
        if name.startswith("nilmat") and getattr(module, "schreier_generators", None) is lifted_pass:
            monkeypatch.setattr(module, "schreier_generators", recording_lift)
    cases = char0_groups()
    assert len(cases) > 60
    for name, G in cases:
        calls.clear()
        is_nilpotent(G)
        verdict_calls = list(calls)
        calls.clear()
        analyze(G)
        assert calls == verdict_calls, name


def _gf_nilpotent_groups(ff_corpus):
    """(name, G, trivial?) for the nilpotent groups of the finite-field
    corpus and of the finite stock at seeds 1 and 101 that the stock
    analyzes, with UT3(5) and trivial groups over GF(5) and Q."""
    from pathlib import Path
    from random import Random

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import stock
    finally:
        sys.path.pop(0)
    F5 = FiniteField(5)
    ut3 = [_m(F5, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]), _m(F5, [[1, 0, 1], [0, 1, 0], [0, 0, 1]]), _m(F5, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])]
    out = [(c.name, c.group, False) for c in ff_corpus if c.nilpotent]
    for seed in (1, 101):
        out += [(f"{e.label}@{seed}", e.group, False) for e in stock.finite_stock(Random(seed)) if e.nilpotent and e.analyze]
    out += [("UT3(5)", GroupSpec(F5, ut3), False)]
    out += [("1(GF(5))", GroupSpec(F5, [Matrix.identity(F5, 3)]), True), ("1(Q)", GroupSpec(QQ, [Matrix.identity(QQ, 2)]), True)]
    return out


def test_complete_reducibility_over_gf_matches_the_jordan_split(ff_corpus):
    """Over GF(q) analyze splits nothing: each generator's unipotent part is
    read off the verdict's Sylow part for the characteristic, and equals the
    Jordan split's, and complete reducibility and the flag dimensions are
    those of reduction_split, on groups with nontrivial unipotent parts
    too."""
    from nilmat.splitting import jordan, reduction_split
    from nilmat.structure import _unipotent_parts

    reducible = set()
    for name, G, trivial in _gf_nilpotent_groups(ff_corpus):
        if not trivial:
            us, _ = _unipotent_parts(G, is_nilpotent(G).artifacts)
            assert list(us) == [jordan(g).u for g in G.gens], name
        split = reduction_split(G)
        rep = analyze(G)
        assert rep.completely_reducible == all(u.is_identity() for u in split.gens_u), name
        assert rep.cr_series_dims == [s.dim for s in split.cert_u.flag], name
        if not rep.completely_reducible:
            reducible.add(name.split("@")[0])
    assert {"reducible(D8,GF(5))", "reducible(max-irr(2,GF(9)))", "UT3(5)"} <= reducible


def test_gf_analyze_never_splits(monkeypatch, ff_corpus):
    """No Jordan split runs in analyze over GF(q), nor for a trivial group."""
    from nilmat import splitting

    def refuse(*_):
        raise AssertionError("split")

    originals = {attr: getattr(splitting, attr) for attr in ("jordan", "reduction_split")}
    for name, module in list(sys.modules.items()):
        for attr, fn in originals.items():
            if name.startswith("nilmat") and getattr(module, attr, None) is fn:
                monkeypatch.setattr(module, attr, refuse)
    for name, G, _ in _gf_nilpotent_groups(ff_corpus):
        assert analyze(G).cr_series_dims, name


def test_finite_core_builds_vertex_matrices_only_when_read(monkeypatch):
    """On Q8^3 over GF(3) the verdict builds no vertex matrix, and analyze
    builds only its center generators'."""
    from corpus import q8_power_with_diagonal

    from nilmat import groups as groups_module

    matrix = groups_module._RowAction.matrix
    built = []

    def counting(self, key):
        built.append(key)
        return matrix(self, key)

    monkeypatch.setattr(groups_module._RowAction, "matrix", counting)
    G = q8_power_with_diagonal(3)
    assert is_nilpotent(G).nilpotent and not built
    rep = analyze(G)
    assert rep.order == 8**3 and len(built) == len(rep.center_gens) == 3


def test_infinite_center_and_primary_read_off_the_image():
    """On every infinite nilpotent group in characteristic 0 with a
    congruence image H of its diagonalizable part G_s, the primary
    decomposition's central part (and a completely reducible group's
    center) replays over G_s, is central there, holds every nontrivial
    kernel generator and maps onto Z(H); the components' orders multiply
    to |H| / |Z(H)|."""
    from nilmat.congruence import apply_congruence
    from nilmat.splitting import s_part_group

    checked = 0
    for name, G in char0_groups():
        v = is_nilpotent(G)
        a = v.artifacts
        if not v.nilpotent or "image_sylow" not in a:
            continue
        rep = analyze(G)
        if rep.finite:
            continue
        Gs = s_part_group(G, a["split"])
        H = closure(list(a["image_gens"]), 10**4)
        center = oracle_invariants(H)["center"]
        zsets = [rep.primary.central_part] + ([rep.center_gens] if rep.completely_reducible else [])
        for zs in zsets:
            for z in zs:
                assert Gs.evaluate(z.word) == z.mat, name
                assert all(z.mat * g == g * z.mat for g in Gs.gens), name
            mats = {z.mat for z in zs}
            assert all(k.mat in mats for k in a["kernel_gens"] if not k.is_identity()), name
            images = [apply_congruence(z.mat, a["congruence"]) for z in zs]
            assert len(closure(images, 10**4)) == center, name
        assert rep.primary.order == len(H) // center == a["image_order"] // center, name
        checked += 1
    assert checked >= 15
def test_analyze_full_reports():
    rep = analyze(d8())
    assert rep.nilpotent and rep.finite and rep.order == 8
    assert rep.completely_reducible and rep.primary.orders == {2: 8}
    assert rep.center_gens

    rep2 = analyze(heisenberg())
    assert rep2.nilpotent and not rep2.finite
    assert rep2.completely_reducible is False
    assert rep2.cr_series_dims == [3, 2, 1, 0]

    s3 = GroupSpec(
        QQ,
        [_m(QQ, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]), _m(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])],
    )
    rep3 = analyze(s3)
    assert not rep3.nilpotent and rep3.witness is not None


def test_verdicts_do_not_depend_on_the_prime(monkeypatch):
    """Every characteristic-0 corpus and stock group, and the uneven
    prime-part groups, under the first three valid --prime values:
    nilpotency, finiteness, order and the component orders never differ,
    and every negative report's witness verifies with its group.  The runs
    meet a nontrivial cross-prime commutator and a dropped part."""
    from nilmat import nilpotency
    from nilmat.cli import run_command
    from nilmat.config import DEFAULT
    from nilmat.errors import NoPrimeInRange
    from nilmat.numth import odd_primes
    from nilmat.verify import verify_report

    met = {"commutator": 0, "dropped": 0}
    prime_parts, commutators = nilpotency._prime_parts, nilpotency._cross_prime_commutators

    def parts_recording(seq, orders=None):
        parts, covers = prime_parts(seq, orders)
        # an element's part is dropped when it repeats a kept one or the element is 1
        met["dropped"] += sum(map(len, covers)) > sum(map(len, parts.values())) or [] in covers
        return parts, covers

    def commutators_recording(sources):
        out = list(commutators(sources))
        met["commutator"] += bool(out)
        return out

    monkeypatch.setattr(nilpotency, "_prime_parts", parts_recording)
    monkeypatch.setattr(nilpotency, "_cross_prime_commutators", commutators_recording)
    negatives = 0
    for name, G in char0_groups() + prime_part_groups():
        want, primes = None, []
        for p in odd_primes(3):
            if len(primes) == 3 or p > 100:
                break
            try:
                rep = run_command("primary", G, DEFAULT.with_(prime_override=p))
            except NoPrimeInRange:
                continue
            primes.append(p)
            v, sylow = rep["verdict"], rep.get("sylow") or {"components": {}}
            orders = {q: c["order"] for q, c in sylow["components"].items()}
            got = (v["nilpotent"], v.get("finite"), v.get("order"), orders)
            assert want is None or got == want, (name, primes)
            want = got
            if rep["witness"]:
                ok, checks = verify_report(rep, G)
                assert ok, (name, p, checks)
                negatives += 1
        assert len(primes) == 3, name
    assert met["commutator"] and met["dropped"]
    assert negatives >= 100
