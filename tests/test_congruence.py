"""Congruence data selection, reduction maps, image enumerations, kernels."""

import random
from fractions import Fraction

import pytest

from corpus import char0_groups, prime_part_groups, rational_finite_corpus
from reference import congruence_kernel

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
from nilmat.groups import GroupSpec, enumerate_group
from nilmat.linalg import Matrix
from nilmat.nilpotency import is_nilpotent
from nilmat.poly import Poly, resultant


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


def test_select_modulus_numberfield():
    nf = NumberField((-2, 0, 1))
    G = GroupSpec(nf, [Matrix.diagonal(nf, (nf.gen(), nf.one))])
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
    G = GroupSpec(K, [Matrix.diagonal(K, (K.gen(), K.inv(K.from_int(5))))])
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
    every prime, so selection raises at once without trying any prime."""
    from nilmat import congruence

    F = QQ if kind == "Q" else NumberField((-2, 0, 1))
    G = GroupSpec(F, [Matrix.from_ints(F, [[1, 1], [0, 1]]), Matrix.from_ints(F, [[0, 1], [1, 0]])])

    def never(*args):
        raise AssertionError("a prime was tried")

    monkeypatch.setattr(congruence, "_try_prime_rational", never)
    monkeypatch.setattr(congruence, "_try_prime_numberfield", never)
    with pytest.raises(NoPrimeInRange, match=f"^no valid odd prime below {congruence.PRIME_CAP}$"):
        select_modulus(G)


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
    G = GroupSpec(nf, [Matrix.diagonal(nf, (nf.gen(), nf.one))])
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


def test_apply_congruence_examples():
    m = Matrix.make(QQ, [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1)]])
    G = GroupSpec(QQ, [m])
    cd = select_modulus(G, DEFAULT.with_(prime_override=5))
    assert apply_congruence(m, cd).rows == ((3, 0), (0, 1))
    assert apply_congruence(Matrix.identity(QQ, 2), cd).is_identity()
    nf = NumberField((-2, 0, 1))
    Gn = GroupSpec(nf, [Matrix.diagonal(nf, (nf.gen(), nf.one))])
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
    """A lifted enumeration records only the nontrivial Schreier
    generators: lifting an image to itself records none, and lifting it
    from a source with a kernel records relators of the image, each
    evaluating to its matrix over the source."""
    F5 = FiniteField(5)
    c4 = GroupSpec(F5, [Matrix.from_ints(F5, [[2]])])
    enum = enumerate_group(c4.gens, 10**6, lift=c4.elts())
    assert len(enum) == 4 and enum.schreier == []
    trivial = GroupSpec(F5, [Matrix.identity(F5, 1)])
    assert len(enumerate_group(trivial.gens, 10**6, lift=trivial.elts())) == 1
    two = GroupSpec(QQ, [Matrix.from_ints(QQ, [[2]])])
    enum = enumerate_group(c4.gens, 10**6, lift=two.elts())
    assert [(z.mat, z.word) for z in enum.schreier] == [(Matrix.from_ints(QQ, [[16]]), ((0, 1),) * 4)]
    rot = Matrix.from_ints(F5, [[0, 4], [1, 0]])
    refl = Matrix.from_ints(F5, [[1, 0], [0, 4]])
    img = GroupSpec(F5, [rot, refl])
    enum8 = enumerate_group(img.gens, 10**6, lift=img.elts())
    assert len(enum8) == 8 and enum8.schreier == []
    assert len(set(enum8.vertices)) == len(enum8.words) == 8
    for mat, word in zip(enum8.vertices, enum8.words):
        assert img.evaluate(word) == mat
    # C4 wr C2 = <diag(3,1), swap> mod 5, lifted from the infinite group over Q
    G = GroupSpec(QQ, [Matrix.from_ints(QQ, [[3, 0], [0, 1]]), Matrix.from_ints(QQ, [[0, 1], [1, 0]])])
    image = apply_congruence_group(G, select_modulus(G))
    enum = enumerate_group(image.gens, 10**6, lift=G.elts())
    assert len(enum) == 32 and enum.schreier
    for z in enum.schreier:
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
    source parts, come first.  The source transversal runs on row ids: only
    the distinct rows of transversal elements go to the field, each once,
    against all the generators' columns side by side (the rows of
    nontrivial Schreier generators are never acted on), and a source
    Matrix product is formed only for a nontrivial
    generator or a tree vertex whose transversal inverse that generator
    needs, so a finite group forms none."""
    from nilmat import nilpotency

    enumerate_lifted = nilpotency.enumerate_group
    calls = []

    def recording(gens, cap, lift=None):
        enum = enumerate_lifted(gens, cap, lift)
        calls.append((gens, cap, lift, enum))
        return enum

    monkeypatch.setattr(nilpotency, "enumerate_group", recording)
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
        schreier = [z for *_, enum in calls for z in enum.schreier]
        assert kernel[: len(schreier)] == schreier, entry.name
        for gens, cap, lift, enum in calls:
            assert lift is not None, entry.name
            _check_lifted_work(monkeypatch, gens, cap, lift, enum, entry)
    assert reached >= 20


def _check_lifted_work(monkeypatch, gens, cap, lift, enum, entry):
    """Reruns one lifted enumeration counting the source field's work."""
    formed, depth, sent, batched, met = [0], [0], [], [], set(Matrix.identity(QQ, lift[0].mat.n).rows)
    product, matmul = Matrix.__mul__, QQ.matmul

    def counting_product(a, b):
        if a.field is not QQ:
            return product(a, b)
        formed[0] += 1
        depth[0] += 1
        try:
            return product(a, b)
        finally:
            depth[0] -= 1

    def counting_matmul(rows, cols):
        out = matmul(rows, cols)
        sent.append(len(rows))
        if not depth[0]:
            # a batch of the row engine, not the rows of a Matrix product:
            # each product row holds one n-slice per generator
            n = len(rows[0])
            batched.append(len(rows))
            met.update(rows, (r[s : s + n] for r in out for s in range(0, len(r), n)))
        return out

    with monkeypatch.context() as m:
        m.setattr(Matrix, "__mul__", counting_product)
        m.setattr(QQ, "matmul", counting_matmul)
        again = enumerate_group(gens, cap, lift)
    assert again.schreier == enum.schreier and not again.overflowed, entry.name
    # the source transversal along the tree, the non-tree edges whose
    # lifted generator is nontrivial, and the tree vertices on the paths
    # to their targets
    lmats, k = [s.mat for s in lift], enum.ngens
    T = [Matrix.identity(QQ, lmats[0].n)]
    for v in range(1, len(enum)):
        T.append(T[enum.parents[v]] * lmats[enum.words[v][-1][0]])
    targets = [
        j
        for u in range(len(enum))
        for i in range(k)
        for j in [enum.table[u * k + i]]
        if enum.words[j] != enum.words[u] + ((i, 1),) and not (T[u] * lmats[i] == T[j])
    ]
    assert len(targets) == len(enum.schreier), entry.name
    inverted = set()
    for j in targets:
        while j:
            inverted.add(j)
            j = enum.parents[j]
    assert formed[0] <= len(targets) + len(inverted), entry.name
    transversal_rows = {r for t in T for r in t.rows}
    assert sum(batched) <= len(transversal_rows), entry.name
    assert sum(sent) <= len(transversal_rows) + lmats[0].n * formed[0], entry.name
    if entry.finite:
        assert formed[0] == 0 and sum(sent) <= len(met), entry.name
        assert met == transversal_rows, entry.name


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


def test_kernel_is_central_tests_each_distinct_nontrivial_generator_once(q_corpus, monkeypatch):
    """kernel_is_central forms two products per generator for each distinct
    kernel matrix, and returns the same pair as the plain loop over every
    kernel generator.  The verdict's kernel generators are never the
    identity: a finite group has none."""
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
    distinct = {z.mat for z in kernel}
    assert distinct
    out, products = central_counted(Gs, kernel + kernel[::-1])
    assert out == (True, None)
    assert products == 2 * len(Gs.gens) * len(distinct)

    diag_x_swap = [
        GroupSpec(ff, [Matrix.diagonal(ff, (ff.x(), ff.one)), Matrix.from_ints(ff, [[0, 1], [1, 0]])])
        for ff in (FunctionField(QQ), FunctionField(FiniteField(5)))
    ]
    groups = [e.group for e in q_corpus] + [_d8_times_xI(QQ), _d8_times_xI(FiniteField(5))] + diag_x_swap
    refuted = 0
    for reduced in filter(None, map(_reduced_kernel, groups)):
        Gs, kernel = reduced
        assert not any(z.is_identity() for z in kernel)
        got, want = kernel_is_central(Gs, kernel), _plain_centrality(Gs, kernel)
        assert got == want
        if not want[0]:
            assert got[1][0] is want[1][0]
            refuted += 1
    assert refuted >= 3


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
    prime of the image H, lifted, on that prime's Sylow subgroup, and never
    on the whole image."""
    from nilmat import nilpotency

    enumerate_lifted = nilpotency.enumerate_group
    calls = []

    def recording(gens, cap, lift=None):
        enum = enumerate_lifted(gens, cap, lift)
        calls.append((lift is not None, len(enum)))
        return enum

    monkeypatch.setattr(nilpotency, "enumerate_group", recording)
    multi = 0
    for name, G in char0_groups() + prime_part_groups():
        calls.clear()
        v = is_nilpotent(G)
        if "image_sylow" not in v.artifacts:
            assert all(lifted for lifted, _ in calls), name
            continue
        orders = v.artifacts["image_sylow"].orders
        assert calls == [(True, orders[p]) for p in sorted(orders)], name
        if len(orders) > 1:
            assert v.artifacts["image_order"] not in [size for _, size in calls], name
            multi += 1
    assert multi >= 4


def test_signed_permutation_sylow_kernel_costs_nothing(monkeypatch):
    """The signed-permutation Sylow 2-subgroup of GL(4, Q), of order 128:
    its lifted enumeration records no Schreier generator, and the
    centrality test forms no product."""
    from nilmat import nilpotency

    def perm(images):
        return Matrix.from_ints(QQ, [[int(images[j] == i) for j in range(4)] for i in range(4)])

    sign = Matrix.diagonal(QQ, (QQ.from_int(-1), QQ.one, QQ.one, QQ.one))
    G = GroupSpec(QQ, [sign, perm([1, 0, 2, 3]), perm([2, 3, 0, 1])])
    enumerate_lifted, enums, formed = nilpotency.enumerate_group, [], []
    product = Matrix.__mul__

    def recording(gens, cap, lift=None):
        enums.append(enumerate_lifted(gens, cap, lift))
        return enums[-1]

    def counting(a, b):
        formed.append(1)
        return product(a, b)

    def central_counted(Gs, kernel):
        with monkeypatch.context() as m:
            m.setattr(Matrix, "__mul__", counting)
            return kernel_is_central(Gs, kernel)

    monkeypatch.setattr(nilpotency, "enumerate_group", recording)
    monkeypatch.setattr(nilpotency, "kernel_is_central", central_counted)
    v = is_nilpotent(G)
    assert v.nilpotent and v.artifacts["image_order"] == 128
    assert [len(e) for e in enums] == [128] and enums[0].schreier == []
    assert v.artifacts["kernel_gens"] == [] and formed == []


def test_congruence_image_may_exceed_the_cayley_cap():
    """Only each Sylow subgroup of the congruence image is enumerated, so an
    image of order 6 gets its verdict and order under a Cayley cap of 5,
    while a closure cap of 2 stops at its Sylow 3-subgroup."""
    from nilmat.structure import analyze

    G = next(e.group for e in rational_finite_corpus() if e.name == "C6-companion")
    v = is_nilpotent(G, DEFAULT.with_(cayley_cap=5))
    assert v.nilpotent and v.artifacts["image_sylow"].orders == {2: 2, 3: 3}
    assert analyze(G, DEFAULT.with_(cayley_cap=5)).order == 6
    with pytest.raises(CapExceeded, match="subgroup closure"):
        is_nilpotent(G, DEFAULT.with_(closure_cap=2))
