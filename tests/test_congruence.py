"""Congruence data selection, reduction maps, image enumerations, kernels."""

import random
from fractions import Fraction
from itertools import chain

import pytest

from corpus import char0_groups, prime_part_groups, rational_finite_corpus
from reference import congruence_kernel

from nilmat.cli import run_command
from nilmat.config import DEFAULT
from nilmat.congruence import (
    apply_congruence,
    apply_congruence_group,
    denominator_set,
    kernel_is_central,
    select_modulus,
)
from nilmat.errors import CapExceeded, NoPrimeInRange, UnsupportedField
from nilmat.fields import QQ, FiniteField, FunctionField, NumberField, reduce_mod
from nilmat.groups import GroupSpec, enumerate_group, schreier_generators
from nilmat.linalg import Matrix, inverse
from nilmat.nilpotency import is_nilpotent
from nilmat.poly import Poly, resultant
from nilmat.structure import analyze
from nilmat.testkit import closure, oracle_invariants
from nilmat.verify import verify_report
from nilmat.witness import serialize_witness


def test_denominator_set_examples():
    G = GroupSpec(QQ, [Matrix.make(QQ, [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(3)]])])
    pi = denominator_set(G)
    assert 2 in pi and 3 in pi
    G2 = GroupSpec(QQ, [Matrix.from_ints(QQ, [[0, -1], [1, 0]])])
    assert denominator_set(G2) == ()
    nf = NumberField((-2, 0, 1))
    entry = nf.parse(["1/3", "1/3"])  # (1 + sqrt2)/3
    G3 = GroupSpec(nf, [Matrix.make(nf, [[entry, nf.zero], [nf.zero, nf.one]])])
    assert 3 in denominator_set(G3)


def test_denominator_set_function_field():
    ff = FunctionField(QQ)
    x = ff.x()
    e = ff.inv(x)  # 1/X
    G = GroupSpec(ff, [Matrix.make(ff, [[e, ff.zero], [ff.zero, ff.one]])])
    pi = denominator_set(G)
    assert any(len(f) == 2 for f in pi)  # the factor X


def test_select_modulus_rational():
    d31 = Matrix.from_ints(QQ, [[3, 0], [0, 1]])
    swap = Matrix.from_ints(QQ, [[0, 1], [1, 0]])
    cd = select_modulus(GroupSpec(QQ, [d31, swap]))
    assert cd.p == 5
    assert cd.checks["odd"] and cd.checks["coprime_to_denominators"]
    assert cd.checks["minpoly_squarefree_mod_p"]
    # re-verify the checks independently: resultants nonzero mod p
    for g in (d31, swap):
        from reference import minimal_polynomial

        h = minimal_polynomial(g)
        target = FiniteField(cd.p)
        hbar = Poly.make(target, [reduce_mod(c, cd.p) for c in h.coeffs])
        assert not target.is_zero(resultant(hbar, hbar.derivative()))


def test_select_modulus_respects_pi_and_override():
    G = GroupSpec(QQ, [Matrix.diagonal(QQ, (Fraction(1, 3), Fraction(5)))])
    cd = select_modulus(G)
    # 3 and 5 divide denominators; mod 7 the eigenvalues 1/3 and 5 collide
    assert cd.p == 11
    cd11 = select_modulus(G, DEFAULT.with_(prime_override=11))
    assert cd11.p == 11
    for bad in (3, 7):
        with pytest.raises(NoPrimeInRange):
            select_modulus(G, DEFAULT.with_(prime_override=bad))


def test_search_takes_the_least_valid_prime_whatever_the_degree():
    """With no override the prime is the least odd one that passes every
    check, however small next to the degree: Q8 <= GL(4, Q) and
    D8 x C2 <= GL(3, Q) reduce at 3, and A4 <= GL(4, Q) at 5, since its
    generator of order 3 has the minimal polynomial t^3 - 1 = (t - 1)^3
    mod 3."""
    groups = {e.name: e.group for e in rational_finite_corpus()}
    for name, degree, p in (("Q8", 4, 3), ("D8xC2", 3, 3), ("A4", 4, 5)):
        assert groups[name].degree == degree
        assert select_modulus(groups[name]).p == p, name


def test_select_modulus_numberfield():
    nf = NumberField((-2, 0, 1))
    G = GroupSpec(nf, [Matrix.diagonal(nf, (nf.parse(["0", "1"]), nf.one))])
    cd7 = select_modulus(G, DEFAULT.with_(prime_override=7))
    assert cd7.target.q == 7 and cd7.alpha_image == 3  # least root of X^2 - 2 mod 7
    cd5 = select_modulus(G, DEFAULT.with_(prime_override=5))
    assert cd5.target.l == 2 and cd5.target.q == 25
    img = apply_congruence(G.gens[0], cd5)
    # the image of sqrt2 squares to 2 in GF(25)
    a = img.rows[0][0]
    assert cd5.target.mul(a, a) == cd5.target.from_int(2)


def test_search_and_override_share_one_prime_trial(monkeypatch):
    """Over Q(sqrt3) the search and --prime run the same checks, with the
    denominators and the discriminant computed once per selection: the
    override of the found prime gives the same data, and the ramified 3 and
    the denominator prime 5 fail with the override message."""
    from nilmat import congruence

    K = NumberField((-3, 0, 1))
    G = GroupSpec(K, [Matrix.diagonal(K, (K.parse(["0", "1"]), K.inv(K.from_int(5))))])
    counts = {"denominator_set": 0, "resultant": 0}
    for name in counts:
        original = getattr(congruence, name)

        def counting(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(congruence, name, counting)
    cd = select_modulus(G)
    assert counts == {"denominator_set": 1, "resultant": 1}
    assert select_modulus(G, DEFAULT.with_(prime_override=cd.p)) == cd
    assert counts == {"denominator_set": 2, "resultant": 2}
    for bad in (3, 5):
        with pytest.raises(NoPrimeInRange, match=f"^prime {bad} fails the validity checks$"):
            select_modulus(G, DEFAULT.with_(prime_override=bad))


@pytest.mark.parametrize("kind", ["Q", "NF"])
def test_select_modulus_fails_fast_on_repeated_minpoly_factor(kind, monkeypatch):
    """A unipotent generator's minimal polynomial (X - 1)^2 stays square mod
    every prime, so selection raises at once, naming that generator,
    without trying any prime, also for a prime the user gives."""
    from nilmat import congruence

    F = QQ if kind == "Q" else NumberField((-2, 0, 1))
    G = GroupSpec(F, [Matrix.from_ints(F, [[1, 1], [0, 1]]), Matrix.from_ints(F, [[0, 1], [1, 0]])])

    def never(*args):
        raise AssertionError("a prime was tried")

    monkeypatch.setattr(congruence, "_try_prime", never)
    for config in (DEFAULT, DEFAULT.with_(prime_override=7)):
        with pytest.raises(NoPrimeInRange, match="^generator 0 is not semisimple"):
            select_modulus(G, config)


def test_select_modulus_function_field_rational_base():
    ff = FunctionField(QQ)
    x = ff.x()
    G = GroupSpec(ff, [Matrix.make(ff, [[x, ff.zero], [ff.zero, ff.one]])])
    cd = select_modulus(G)
    # X itself divides the inverse denominators, so 0 is not admissible
    assert cd.eval_point != Fraction(0)
    img = apply_congruence(G.gens[0], cd)
    assert img.field.q == cd.p


def test_select_modulus_unramified_check_reverified():
    nf = NumberField((-2, 0, 1))
    G = GroupSpec(nf, [Matrix.diagonal(nf, (nf.parse(["0", "1"]), nf.one))])
    cd = select_modulus(G)
    assert cd.checks["unramified"]
    fq = Poly.from_ints(QQ, nf.minpoly)
    disc = resultant(fq, fq.derivative())
    assert disc.numerator % cd.p != 0


def test_function_field_finite_base_extension_point():
    """When every base point is a denominator root, the evaluation point
    moves to an extension field."""
    ff = FunctionField(FiniteField(2))
    x = ff.x()
    x1 = ff.add(x, ff.one)
    # entries with denominators X and X + 1 exclude both GF(2) points
    g = Matrix.make(ff, [[ff.inv(x), ff.zero], [ff.zero, ff.inv(x1)]])
    G = GroupSpec(ff, [g])
    cd = select_modulus(G)
    assert cd.eval_target.q == 4
    img = apply_congruence(g, cd)
    assert img.field.q == 4
    # evaluation stays a homomorphism into GL(2, 4)
    assert apply_congruence(g * g, cd) == img * img


def test_function_field_point_is_the_first_admissible_one(monkeypatch):
    """Over GF(5)(X) the evaluation point is the first at which no
    denominator vanishes, semisimple image or not: <u, X I> and <u>, u =
    [[1, 1], [0, 1]], have their generators evaluated at that one point,
    and keep their verdict, finiteness and order."""
    from nilmat import congruence

    ff = FunctionField(FiniteField(5))
    u = Matrix.from_ints(ff, [[1, 1], [0, 1]])
    points = []
    original = congruence._evaluate_ff_matrix

    def counting(field, m, point_field, point):
        points.append(point)
        return original(field, m, point_field, point)

    monkeypatch.setattr(congruence, "_evaluate_ff_matrix", counting)
    for gens, point, order in (([u, Matrix.diagonal(ff, (ff.x(), ff.x()))], 1, None), ([u], 0, 5)):
        G = GroupSpec(ff, gens)
        points.clear()
        cd = select_modulus(G)
        assert points == [point] * len(gens)
        assert cd.eval_point == point and cd.checks["image_semisimple"] is False
        rep = analyze(G)
        assert (rep.nilpotent, rep.finite, rep.order) == (True, order is not None, order)


def test_function_field_first_point_decides_heisenberg_and_witness():
    """<e12(X + 1), e23(X + 1)> over GF(5)(X) is evaluated at X = 0, where
    its image is faithful, so it gets the oracle's answer (at X = 4 both
    generators are 1).  <[[1, X + 1], [0, 1]], swap> is refuted by its
    Jordan parts before any point is chosen: the first generator is its
    own unipotent part and the swap its own diagonalizable part, and they
    fail to commute; the witness replays over the source."""
    ff = FunctionField(FiniteField(5))
    c, o, z = ff.add(ff.x(), ff.one), ff.one, ff.zero
    heis = GroupSpec(ff, [Matrix.make(ff, [[o, c, z], [z, o, z], [z, z, o]]), Matrix.make(ff, [[o, z, z], [z, o, c], [z, z, o]])])
    truth = oracle_invariants(closure(heis.gens, 10**3))
    rep = analyze(heis)
    assert (rep.nilpotent, rep.finite, rep.order) == (truth["nilpotent"], True, truth["order"]) == (True, True, 125)
    G = GroupSpec(ff, [Matrix.make(ff, [[o, c], [z, o]]), Matrix.from_ints(ff, [[0, 1], [1, 0]])])
    v = is_nilpotent(G)
    assert not v.nilpotent and (v.witness.kind, v.witness.context) == ("non_commuting_pair", "jordan_parts")
    ok, checks = verify_report({"witness": serialize_witness(v.witness)}, G)
    assert ok, checks


def test_function_field_extension_of_an_extension_base():
    """Over GF(4)(X) the denominator X^4 + X vanishes at every point of
    GF(4), so the point moves to GF(16), outside the embedded GF(4); the
    embedding is a ring map on all of GF(4), and both verdicts replay."""
    from nilmat import congruence

    base = FiniteField(2, 2)
    ff = FunctionField(base)
    x = ff.x()
    d = ff.add(ff.mul(ff.mul(x, x), ff.mul(x, x)), x)
    g = Matrix.diagonal(ff, (d, ff.one))
    G = GroupSpec(ff, [g])
    cd = select_modulus(G)
    ext = cd.eval_target
    assert ext.q == 16
    emb = congruence._embedding(base, ext)
    embedded = {emb(a) for a in base.elements()}
    assert len(embedded) == 4 and cd.eval_point not in embedded
    for a in base.elements():
        for b in base.elements():
            assert emb(base.add(a, b)) == ext.add(emb(a), emb(b))
            assert emb(base.mul(a, b)) == ext.mul(emb(a), emb(b))
    rep = run_command("is-finite", G)
    assert rep["verdict"]["nilpotent"] is True and rep["verdict"]["finite"] is False
    ok, checks = verify_report(rep, G)
    assert ok, checks
    G2 = GroupSpec(ff, [g, Matrix.from_ints(ff, [[0, 1], [1, 0]])])
    rep2 = run_command("is-nilpotent", G2)
    assert rep2["verdict"]["nilpotent"] is False
    ok, checks = verify_report(rep2, G2)
    assert ok, checks


def test_apply_congruence_examples():
    m = Matrix.make(QQ, [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1)]])
    G = GroupSpec(QQ, [m])
    cd = select_modulus(G, DEFAULT.with_(prime_override=5))
    assert apply_congruence(m, cd).rows == ((3, 0), (0, 1))
    assert apply_congruence(Matrix.identity(QQ, 2), cd).is_identity()
    nf = NumberField((-2, 0, 1))
    Gn = GroupSpec(nf, [Matrix.diagonal(nf, (nf.parse(["0", "1"]), nf.one))])
    cdn = select_modulus(Gn, DEFAULT.with_(prime_override=7))
    assert apply_congruence(Gn.gens[0], cdn).rows == ((3, 0), (0, 1))


def test_apply_congruence_is_homomorphism():
    rng = random.Random(31)
    G = GroupSpec(QQ, [Matrix.from_ints(QQ, [[3, 0], [0, 1]])])
    cd = select_modulus(G)
    n = 2
    for _ in range(50):
        a = Matrix.make(QQ, [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6])) for _ in range(n)] for _ in range(n)])
        b = Matrix.make(QQ, [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6])) for _ in range(n)] for _ in range(n)])
        if any(x.denominator % cd.p == 0 for row in (a * b).rows for x in row):
            continue
        assert apply_congruence(a, cd) * apply_congruence(b, cd) == apply_congruence(a * b, cd)
    assert apply_congruence(Matrix.identity(QQ, n), cd).is_identity()


def test_finite_image_presentation_examples():
    """A lifted pass over an enumeration records only the nontrivial
    Schreier generators: lifting an image to itself records none, and
    lifting it from a source with a kernel records relators of the image,
    each evaluating to its matrix over the source."""
    F5 = FiniteField(5)
    c4 = GroupSpec(F5, [Matrix.from_ints(F5, [[2]])])
    enum = enumerate_group(c4.gens, 10**6)
    assert len(enum) == 4 and schreier_generators(enum, c4.elts()) == []
    trivial = GroupSpec(F5, [Matrix.identity(F5, 1)])
    enum1 = enumerate_group(trivial.gens, 10**6)
    assert len(enum1) == 1 and schreier_generators(enum1, trivial.elts()) == []
    two = GroupSpec(QQ, [Matrix.from_ints(QQ, [[2]])])
    kernel = schreier_generators(enum, two.elts())
    assert [(z.mat, z.word) for z in kernel] == [(Matrix.from_ints(QQ, [[16]]), ((0, 1),) * 4)]
    rot = Matrix.from_ints(F5, [[0, 4], [1, 0]])
    refl = Matrix.from_ints(F5, [[1, 0], [0, 4]])
    img = GroupSpec(F5, [rot, refl])
    enum8 = enumerate_group(img.gens, 10**6)
    assert len(enum8) == 8 and schreier_generators(enum8, img.elts()) == []
    vertices = [enum8.vertex(v) for v in range(8)]
    assert len(set(vertices)) == 8
    for v, mat in enumerate(vertices):
        assert img.evaluate(enum8.word(v)) == mat
    # C4 wr C2 = <diag(3,1), swap> mod 5, lifted from the infinite group over Q
    G = GroupSpec(QQ, [Matrix.from_ints(QQ, [[3, 0], [0, 1]]), Matrix.from_ints(QQ, [[0, 1], [1, 0]])])
    image = apply_congruence_group(G, select_modulus(G))
    enum = enumerate_group(image.gens, 10**6)
    kernel = schreier_generators(enum, G.elts())
    assert len(enum) == 32 and kernel
    for z in kernel:
        assert image.evaluate(z.word).is_identity(), z.word
        assert G.evaluate(z.word) == z.mat and not z.mat.is_identity()


def test_finite_image_presentation_cap():
    F7 = FiniteField(7)
    c6 = GroupSpec(F7, [Matrix.from_ints(F7, [[3]])])
    with pytest.raises(CapExceeded):
        congruence_kernel(c6, c6.gens, 3)
    enum = enumerate_group(c6.gens, 3)
    assert enum.overflowed and len(enum) == 3


def test_kernel_normal_generators_examples():
    G = GroupSpec(QQ, [Matrix.from_ints(QQ, [[2]])])
    cd = select_modulus(G, DEFAULT.with_(prime_override=5))
    img = apply_congruence_group(G, cd)
    _, kg = congruence_kernel(G, img.gens, 10**6)
    assert [z.mat.rows for z in kg] == [((Fraction(16),),)]
    # D8 with integer entries: the mod-5 image is faithful, kernel trivial
    r = Matrix.from_ints(QQ, [[0, -1], [1, 0]])
    s = Matrix.from_ints(QQ, [[1, 0], [0, -1]])
    D8 = GroupSpec(QQ, [r, s])
    cd8 = select_modulus(D8)
    img8 = apply_congruence_group(D8, cd8)
    order8, kg8 = congruence_kernel(D8, img8.gens, 10**6)
    assert order8 == 8
    for z in kg8:
        assert z.mat.is_identity()


def test_lifted_kernel_generators_replay(q_corpus, monkeypatch):
    """On the rational corpus every kernel generator the verdict path lifts
    is nontrivial and replays from its word over the diagonalizable parts;
    the Schreier generators of the image's Sylow subgroups, lifted by their
    source parts, come first (each distinct matrix once), one pass over
    each Sylow subgroup's table.
    The pass runs on row ids and forms no Matrix product: only the
    distinct rows of transversal elements go through the transversal
    action's act, each once, against all the generators at once, and only
    the distinct rows met on the nontrivial generators' walks up their
    targets' tree paths go through the inverse action's, so a finite
    group, which has no nontrivial generator, builds no inverse action."""
    from nilmat import nilpotency

    lifted_pass = nilpotency.schreier_generators
    calls = []

    def recording(enum, lift):
        out = lifted_pass(enum, lift)
        calls.append((enum, lift, out))
        return out

    monkeypatch.setattr(nilpotency, "schreier_generators", recording)
    reached = 0
    for entry in q_corpus:
        calls.clear()
        v = is_nilpotent(entry.group)
        if "kernel_gens" not in v.artifacts:
            continue
        reached += 1
        Gs = GroupSpec(QQ, v.artifacts["split"].gens_s)
        kernel = v.artifacts["kernel_gens"]
        for z in kernel:
            assert Gs.evaluate(z.word) == z.mat and not z.is_identity(), entry.name
        schreier = {}
        for *_, out in calls:
            for z in out:
                schreier.setdefault(z.mat, z)
        assert kernel[: len(schreier)] == list(schreier.values()), entry.name
        assert [enum for enum, *_ in calls] == list(v.artifacts["image_sylow"].enums.values()), entry.name
        for enum, lift, out in calls:
            _check_lifted_work(monkeypatch, enum, lift, out, entry)
    assert reached >= 20


def _check_lifted_work(monkeypatch, enum, lift, schreier, entry):
    """Reruns one lifted pass counting the source field's work: the rows
    sent through each row kernel's act (the transversal's, then the
    inverse action's), and the Matrix products."""
    formed, sent, met = [0], [], set(Matrix.identity(QQ, lift[0].mat.n).rows)
    product, row_kernel = Matrix.__mul__, QQ.row_kernel

    def counting_product(a, b):
        formed[0] += 1
        return product(a, b)

    def counting_kernel(mats):
        ident, act, values = row_kernel(mats)
        sent.append([])
        first = len(sent) == 1

        def counting(batch):
            out = act(batch)
            sent[-1].append(len(batch))
            if first:
                met.update(map(values, chain(batch, *out)))
            return out

        return ident, counting, values

    with monkeypatch.context() as m:
        m.setattr(Matrix, "__mul__", counting_product)
        m.setattr(QQ, "row_kernel", counting_kernel)
        again = schreier_generators(enum, lift)
    assert again == schreier and formed[0] == 0, entry.name
    # the source transversal along the tree, the non-tree edges whose
    # lifted generator is nontrivial, and the rows of T(u) lift[i] on its
    # walk up the tree path to its target j, one inverse letter a step
    lmats, k = [s.mat for s in lift], enum.ngens
    T = [Matrix.identity(QQ, lmats[0].n)]
    for v in range(1, len(enum)):
        T.append(T[enum.parents[v]] * lmats[enum.letters[v]])
    edges = [
        (u, i, j)
        for u in range(len(enum))
        for i in range(k)
        for j in [enum.table[u * k + i]]
        if enum.word(j) != enum.word(u) + ((i, 1),) and not (T[u] * lmats[i] == T[j])
    ]
    assert len(edges) == len(schreier), entry.name
    walked = set()
    for (u, i, j), z in zip(edges, schreier):
        x = T[u] * lmats[i]
        while j:
            walked.update(x.rows)
            x, j = x * inverse(lmats[enum.letters[j]]), enum.parents[j]
        assert x == z.mat, entry.name
    transversal_rows = {r for t in T for r in t.rows}
    assert len(sent) == 1 + bool(edges), entry.name
    assert sum(sent[0]) <= len(transversal_rows), entry.name
    if edges:
        assert sum(sent[1]) <= len(walked), entry.name
    if entry.finite:
        assert not edges and sum(sent[0]) <= len(met), entry.name
        assert met == transversal_rows, entry.name


def test_lifted_pass_decodes_each_distinct_generator_once(monkeypatch):
    """On D16 x <sqrt2 I> over Q(sqrt2) the lifted pass over the image's
    Sylow 2-subgroup of order 32 finds 23 nontrivial Schreier generators
    but only 3 distinct matrices: it decodes each once (n values calls a
    matrix), and generators with equal rows share the one Matrix."""
    from nilmat import nilpotency

    G, _ = _sqrt2_groups()
    K, lifted_pass, calls = G.field, nilpotency.schreier_generators, []

    def recording(enum, lift):
        calls.append((enum, lift))
        return lifted_pass(enum, lift)

    monkeypatch.setattr(nilpotency, "schreier_generators", recording)
    assert is_nilpotent(G).nilpotent
    [(enum, lift)] = calls
    decoded, row_kernel = [], K.row_kernel

    def counting_kernel(mats):
        ident, act, values = row_kernel(mats)

        def counting(row):
            decoded.append(row)
            return values(row)

        return ident, act, counting

    with monkeypatch.context() as m:
        m.setattr(K, "row_kernel", counting_kernel)
        out = schreier_generators(enum, lift)
    assert len(enum) == 32 and len(out) == 23
    assert len({z.mat for z in out}) == 3 and len(decoded) == 3 * G.degree
    for z in out:
        for y in out:
            assert (z.mat == y.mat) == (z.mat is y.mat)


def test_kernel_is_central_examples():
    d31 = Matrix.from_ints(QQ, [[3, 0], [0, 1]])
    swap = Matrix.from_ints(QQ, [[0, 1], [1, 0]])
    G = GroupSpec(QQ, [d31, swap])
    cd = select_modulus(G)
    img = apply_congruence_group(G, cd)
    order, kg = congruence_kernel(G, img.gens, 10**6)
    assert order == 32
    ok, bad = kernel_is_central(G, kg)
    assert not ok
    z, gi = bad
    assert not (z.mat * G.gens[gi] == G.gens[gi] * z.mat)
    # abelian groups have central kernels by construction
    Ga = GroupSpec(QQ, [Matrix.from_ints(QQ, [[2]])])
    cda = select_modulus(Ga)
    _, kga = congruence_kernel(Ga, apply_congruence_group(Ga, cda).gens, 10**6)
    oka, _ = kernel_is_central(Ga, kga)
    assert oka


def _d8_times_xI(base):
    ff = FunctionField(base)
    x = ff.x()
    rot = Matrix.from_ints(ff, [[0, -1], [1, 0]])
    refl = Matrix.from_ints(ff, [[1, 0], [0, -1]])
    return GroupSpec(ff, [rot, refl, Matrix.diagonal(ff, (x, x))])


def _reduced_kernel(G):
    """(the group whose kernel is tested, the kernel) as is_nilpotent sees
    them, or None when the verdict is reached before the kernel."""
    v = is_nilpotent(G)
    if "kernel_gens" not in v.artifacts:
        return None
    split = v.artifacts.get("split")
    Gs = G if split is None else GroupSpec(G.field, split.gens_s)
    return Gs, v.artifacts["kernel_gens"]


def _plain_centrality(G, kernel):
    """The definition: every kernel generator against every generator."""
    for z in kernel:
        for i, g in enumerate(G.gens):
            if not (z.mat * g == g * z.mat):
                return False, (z, i)
    return True, None


def _sqrt2_groups():
    """D16 x <sqrt2 I>, whose congruence kernel is central, and
    <diag(sqrt2, 1), swap>, whose kernel is not, over Q(sqrt2)."""
    K = NumberField((-2, 0, 1))
    h, s2 = (Fraction(0), Fraction(1, 2)), (Fraction(0), Fraction(1))
    rot45 = Matrix.make(K, [[h, K.neg(h)], [h, h]])
    swap = Matrix.from_ints(K, [[0, 1], [1, 0]])
    d16 = GroupSpec(K, [rot45, Matrix.from_ints(K, [[1, 0], [0, -1]]), Matrix.diagonal(K, (s2, s2))])
    return d16, GroupSpec(K, [Matrix.diagonal(K, (s2, K.one)), swap])


def test_kernel_is_central_tests_each_distinct_nontrivial_generator_once(q_corpus, monkeypatch):
    """The verdict's kernel generators are distinct matrices, and
    kernel_is_central compares the rows of every z g and g z, read from
    row kernels with no Matrix product, returning the same pair as the
    plain loop over every kernel generator: over Q, Q(X), GF(5)(X) and,
    through the Kronecker-packed integer rows, over Q(sqrt2).  They are
    never the identity: a finite group has none."""
    counted = []
    product = Matrix.__mul__

    def counting(a, b):
        counted.append(1)
        return product(a, b)

    def central_counted(Gs, kernel):
        counted.clear()
        with monkeypatch.context() as m:
            m.setattr(Matrix, "__mul__", counting)
            out = kernel_is_central(Gs, kernel)
        return out, len(counted)

    q8 = next(e.group for e in q_corpus if e.name == "Q8")
    Gs, kernel = _reduced_kernel(q8)
    assert kernel == []
    assert central_counted(Gs, kernel) == ((True, None), 0)

    Gs, kernel = _reduced_kernel(_d8_times_xI(QQ))
    assert kernel and len({z.mat for z in kernel}) == len(kernel)
    assert central_counted(Gs, kernel) == ((True, None), 0)

    diag_x_swap = [
        GroupSpec(ff, [Matrix.diagonal(ff, (ff.x(), ff.one)), Matrix.from_ints(ff, [[0, 1], [1, 0]])])
        for ff in (FunctionField(QQ), FunctionField(FiniteField(5)))
    ]
    groups = [e.group for e in q_corpus] + [_d8_times_xI(QQ), _d8_times_xI(FiniteField(5))] + diag_x_swap
    groups += _sqrt2_groups()
    refuted, sqrt2 = 0, []
    for G in groups:
        reduced = _reduced_kernel(G)
        if reduced is None:
            continue
        Gs, kernel = reduced
        assert not any(z.is_identity() for z in kernel)
        assert len({z.mat for z in kernel}) == len(kernel)
        (got, products), want = central_counted(Gs, kernel), _plain_centrality(Gs, kernel)
        assert got == want and products == 0
        if not want[0]:
            assert got[1][0] is want[1][0]
            refuted += 1
        if isinstance(G.field, NumberField):
            sqrt2.append((bool(kernel), want[0]))
    assert refuted >= 4
    assert sqrt2 == [(True, True), (True, False)]


def test_faithful_image_orders_on_finite_groups(ff_corpus):
    """For rational finite groups the congruence image has the same order;
    checked here on a couple of cases, in bulk by the acceptance suite."""
    r = Matrix.from_ints(QQ, [[0, -1], [1, 0]])
    s = Matrix.from_ints(QQ, [[1, 0], [0, -1]])
    for gens, order in (([r, s], 8), ([r], 4)):
        G = GroupSpec(QQ, gens)
        cd = select_modulus(G)
        img = apply_congruence_group(G, cd)
        assert congruence_kernel(G, img.gens, 10**6)[0] == order


def test_select_modulus_rejects_finite_fields():
    F5 = FiniteField(5)
    with pytest.raises(UnsupportedField):
        select_modulus(GroupSpec(F5, [Matrix.identity(F5, 2)]))


def test_apply_congruence_stale_data_raises():
    from nilmat.errors import DenominatorDivisible

    G = GroupSpec(QQ, [Matrix.from_ints(QQ, [[3, 0], [0, 1]])])
    cd = select_modulus(G, DEFAULT.with_(prime_override=5))
    stale = Matrix.make(QQ, [[Fraction(1, 5), Fraction(0)], [Fraction(0), Fraction(1)]])
    with pytest.raises(DenominatorDivisible):
        apply_congruence(stale, cd)


def test_rational_corpus_labels_match_image_orders():
    """Every finite rational corpus entry's labelled order is the order of
    its congruence image, which is faithful on a finite group."""
    from corpus import rational_finite_corpus

    for entry in rational_finite_corpus():
        cd = select_modulus(entry.group)
        img = apply_congruence_group(entry.group, cd)
        image_order, _ = congruence_kernel(entry.group, img.gens, 10**6)
        assert image_order == entry.order, entry.name


def _with_kernels(groups, config=DEFAULT):
    """(name, G_s, verdict) for each group whose verdict reaches the kernel."""
    from nilmat.splitting import s_part_group

    for name, G in groups:
        v = is_nilpotent(G, config)
        if "kernel_gens" in v.artifacts:
            yield name, s_part_group(G, v.artifacts["split"]), v


def test_per_prime_kernel_matches_whole_image_reference():
    """The kernel generators of the lifted Sylow test and the whole image's
    lifted Schreier generators (reference.congruence_kernel) agree on the
    verdict, on centrality and on whether they are all trivial, on the
    rational corpus, the char0 and cli stocks and the uneven prime-part
    groups; every generator maps to the identity under the verdict's
    congruence and replays from its word."""
    runs = _with_kernels(char0_groups() + prime_part_groups())
    runs = [*runs, *_with_kernels(prime_part_groups(), DEFAULT.with_(prime_override=5))]
    reached = multi = 0
    for name, Gs, v in runs:
        a = v.artifacts
        kernel = a["kernel_gens"]
        order, ref = congruence_kernel(Gs, a["image_gens"], 10**6)
        assert order == a["image_order"], name
        assert kernel_is_central(Gs, kernel)[0] == kernel_is_central(Gs, ref)[0] == v.nilpotent, name
        assert (not kernel) == all(z.is_identity() for z in ref), name
        for z in kernel:
            assert apply_congruence(z.mat, a["congruence"]).is_identity(), name
            assert Gs.evaluate(z.word) == z.mat and not z.is_identity(), name
        reached += 1
        multi += len(a["image_sylow"].orders) > 1
    assert reached >= 50 and multi >= 4


def test_verdict_path_enumerates_each_sylow_subgroup_once_lifted(monkeypatch):
    """On the characteristic-0 verdict path enumerate_group runs once per
    prime of the image H, on that prime's Sylow subgroup, and never on the
    whole image; a nilpotent image's tables are then each lifted once, and
    a negative image verdict lifts none."""
    from nilmat import nilpotency

    enumerate_plain, lifted_pass = nilpotency.enumerate_group, nilpotency.schreier_generators
    calls, lifted = [], []

    def recording(gens, cap):
        enum = enumerate_plain(gens, cap)
        calls.append(enum)
        return enum

    def recording_lift(enum, lift):
        lifted.append(enum)
        return lifted_pass(enum, lift)

    monkeypatch.setattr(nilpotency, "enumerate_group", recording)
    monkeypatch.setattr(nilpotency, "schreier_generators", recording_lift)
    multi = 0
    for name, G in char0_groups() + prime_part_groups():
        calls.clear()
        lifted.clear()
        v = is_nilpotent(G)
        if "image_sylow" not in v.artifacts:
            assert lifted == [], name
            continue
        orders = v.artifacts["image_sylow"].orders
        assert [len(e) for e in calls] == [orders[p] for p in sorted(orders)], name
        assert lifted == calls, name
        if len(orders) > 1:
            assert v.artifacts["image_order"] not in [len(e) for e in calls], name
            multi += 1
    assert multi >= 4


def test_negative_image_verdict_lifts_nothing(q_corpus, monkeypatch):
    """S4 and A4 as permutation matrices in GL(4, Q) have non-nilpotent
    congruence images, so the verdict is negative and no Sylow table is
    lifted to the source group."""
    from nilmat import nilpotency

    def never(enum, lift):
        raise AssertionError("a negative image verdict was lifted")

    monkeypatch.setattr(nilpotency, "schreier_generators", never)
    groups = {e.name: e.group for e in q_corpus}
    for name in ("S4", "A4"):
        G = groups[name]
        assert G.degree == 4
        v = is_nilpotent(G)
        assert not v.nilpotent and v.witness.context == "image", name
        assert "kernel_gens" not in v.artifacts, name


def test_signed_permutation_sylow_kernel_costs_nothing(monkeypatch):
    """The signed-permutation Sylow 2-subgroup of GL(4, Q), of order 128:
    the lifted pass over its table records no Schreier generator, and the
    centrality test forms no product."""
    from nilmat import nilpotency

    def perm(images):
        return Matrix.from_ints(QQ, [[int(images[j] == i) for j in range(4)] for i in range(4)])

    sign = Matrix.diagonal(QQ, (QQ.from_int(-1), QQ.one, QQ.one, QQ.one))
    G = GroupSpec(QQ, [sign, perm([1, 0, 2, 3]), perm([2, 3, 0, 1])])
    lifted_pass, passes, formed = nilpotency.schreier_generators, [], []
    product = Matrix.__mul__

    def recording(enum, lift):
        passes.append((len(enum), lifted_pass(enum, lift)))
        return passes[-1][1]

    def counting(a, b):
        formed.append(1)
        return product(a, b)

    def central_counted(Gs, kernel):
        with monkeypatch.context() as m:
            m.setattr(Matrix, "__mul__", counting)
            return kernel_is_central(Gs, kernel)

    monkeypatch.setattr(nilpotency, "schreier_generators", recording)
    monkeypatch.setattr(nilpotency, "kernel_is_central", central_counted)
    v = is_nilpotent(G)
    assert v.nilpotent and v.artifacts["image_order"] == 128
    assert passes == [(128, [])]
    assert v.artifacts["kernel_gens"] == [] and formed == []


def test_congruence_image_may_exceed_the_closure_cap():
    """Only each Sylow subgroup of the congruence image is enumerated, so an
    image of order 6 gets its verdict and order under a closure cap of 5,
    which bounds its Sylow subgroups of orders 2 and 3 only, while a
    closure cap of 2 stops at its Sylow 3-subgroup."""
    from nilmat.structure import analyze

    G = next(e.group for e in rational_finite_corpus() if e.name == "C6-companion")
    v = is_nilpotent(G, DEFAULT.with_(closure_cap=5))
    assert v.nilpotent and v.artifacts["image_sylow"].orders == {2: 2, 3: 3}
    assert analyze(G, DEFAULT.with_(closure_cap=5)).order == 6
    with pytest.raises(CapExceeded, match="subgroup closure"):
        is_nilpotent(G, DEFAULT.with_(closure_cap=2))


def test_embedding_factors_each_modulus_once(monkeypatch):
    """Over GF(4)(X), X^4 + X vanishes at every point of GF(4), so the
    evaluation point lies in GF(16): the base modulus is factored over
    GF(16) once, not once per candidate point and reduced matrix."""
    from nilmat import congruence

    F = FunctionField(FiniteField(2, 2))
    x = F.x()
    g = Matrix.make(F, [[F.add(F.mul(F.mul(x, x), F.mul(x, x)), x), F.zero], [F.zero, F.one]])
    # of order 3 and semisimple (a swap would be unipotent in characteristic 2)
    c3 = Matrix.make(F, [[F.zero, F.one], [F.one, F.one]])
    factored, factor = [], congruence.factor

    def counting(f):
        factored.append((f.field, f.coeffs))
        return factor(f)

    congruence._modulus_root.cache_clear()
    monkeypatch.setattr(congruence, "factor", counting)
    for _ in range(3):
        v = is_nilpotent(GroupSpec(F, [g, c3]))
    assert not v.nilpotent
    assert v.artifacts["congruence"].eval_target.q == 16
    # the denominators X (X + 1) (X^2 + X + 1) are factored over the base itself
    over_ext = [k for k in factored if k[0] != F.base]
    assert over_ext == [(FiniteField(2, 4), tuple(F.base.modulus))]
