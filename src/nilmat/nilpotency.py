"""Nilpotency decisions.

A finite group is nilpotent exactly when it is the direct product of its
Sylow subgroups, and that certificate decides every positive finite
verdict: the input generators are split into prime-power parts, parts for
distinct primes must commute, and the parts for each prime must close into
a p-group.  When the certificate fails, the centralizer chain (test_series)
runs only to refute, and its terms feed the search for a witness; every
negative verdict carries one that replays.  Over infinite fields the
group is split into diagonalizable and unipotent parts, the diagonalizable
part is reduced through a validated congruence, and the verdict combines
the finite image verdict with centrality of the congruence kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

from .config import DEFAULT, Config
from .congruence import apply_congruence, congruence_kernel, kernel_is_central, select_modulus
from .errors import (
    CapExceeded,
    LoopOverflow,
    NotNilpotentSignal,
    NotSemisimple,
    UnsupportedField,
    VerdictUnavailable,
)
from .fields import FiniteField, FunctionField, NumberField, RationalField
from .groups import Elt, GroupSpec, enumerate_group, word_mul
from .linalg import AlgebraBasis, Matrix, inverse, minimal_polynomial, spin_basis
from .numth import factorint, max_root_of_unity_order
from .poly import gcd as poly_gcd
from .splitting import finite_order, is_unipotent_matrix, jordan, reduction_split
from .witness import WItem, Witness, pair_witness


# ---------------------------------------------------------------------------
# class bounds

def class_bound(field, n: int) -> int:
    """Upper bound for the nilpotency class of nilpotent subgroups of GL(n)
    over the given field."""
    if isinstance(field, RationalField):
        return max(1, (3 * n) // 2)
    if isinstance(field, NumberField):
        return max(1, (3 * field.degree * n) // 2)
    if isinstance(field, FiniteField):
        q = field.q
        p = field.p
        best = 1
        qm1 = q - 1
        for t in factorint(max(1, qm1)):
            if t == p or t > n:
                continue
            s = 0
            m = qm1
            while m % t == 0:
                s += 1
                m //= t
            best = max(best, (t - 1) * s + 1)
        return n * best
    if isinstance(field, FunctionField):
        return max(class_bound(field.base, n), n - 1) + 1
    raise UnsupportedField(f"no class bound for {field.name()}")


# ---------------------------------------------------------------------------
# data carried by verdicts

@dataclass
class Chain4Level:
    a: Elt
    A: list            # abelian normal subgroup generators
    C: list            # centralizer generators (the next chain term)
    image_orders: list # phi image sizes per intersected stage


@dataclass
class Chain4:
    levels: list
    final_abelian: list  # generators of the final abelian term C_l

    @property
    def depth(self):
        return len(self.levels)


@dataclass
class SylowSystem:
    components: dict       # prime -> list of Elt
    orders: dict           # prime -> verified component order
    central_part: tuple = ()
    # prime -> the certificate's Enumeration of the component, over its elements
    enums: dict = dfield(default_factory=dict, compare=False, repr=False)

    @property
    def order(self):
        out = 1
        for v in self.orders.values():
            out *= v
        return out

    def center(self) -> list:
        """Generators of the center of a certified system, as Elts over the
        reference generators: Z(prod P_p) = prod Z(P_p), and each Z(P_p)
        is read off the component's Cayley table with no matrix products.
        Each word is the vertex's tree word mapped through the components'
        words."""
        out = []
        for p in sorted(self.enums):
            enum, parts = self.enums[p], self.components[p]
            for v in enum.center():
                word = word_mul(*(parts[i].word for i, _ in enum.words[v]))
                out.append(Elt(enum.vertices[v], word))
        return out


@dataclass
class AdjointData:
    basis: AlgebraBasis
    adj_gens: list

    @property
    def dim(self):
        return self.basis.dim


@dataclass
class Verdict:
    nilpotent: bool
    witness: Witness | None = None
    artifacts: dict = dfield(default_factory=dict)


# ---------------------------------------------------------------------------
# abelian series machinery

def _centralizes(m: Matrix, elts) -> bool:
    return all(m * e.mat == e.mat * m for e in elts)


def _is_abelian(elts) -> bool:
    for i, x in enumerate(elts):
        for y in elts[i + 1 :]:
            if not (x.mat * y.mat == y.mat * x.mat):
                return False
    return True


def _noncentral_partner(m: Matrix, elts):
    for e in elts:
        if not (m * e.mat == e.mat * m):
            return e
    return None


def second_central_element(G_elts, H_elts, k: int, context="input") -> Elt:
    """An element of the second center of H modulo its center, with all
    generator commutators landing in the center of H.

    Replaces the candidate by commutators until they centralize H; more
    than k replacements contradicts the class bound and raises the signal
    with the full descending chain as witness.
    """
    pool = list(H_elts) + [g for g in G_elts]
    start = None
    for h in H_elts:
        if not _centralizes(h.mat, H_elts):
            start = h
            break
    if start is None:
        raise ValueError("H is abelian; no second central element exists")
    a = start
    steps = []  # (a, x, partner showing a not central)
    replacements = 0
    while True:
        partner = _noncentral_partner(a.mat, H_elts)
        move = None
        for x in pool:
            c = a.commutator(x)
            if c.is_identity():
                continue
            if not _centralizes(c.mat, H_elts):
                move = x
                break
        if move is None:
            return a
        steps.append((a, move, partner))
        a = a.commutator(move)
        replacements += 1
        if replacements > k:
            partner = _noncentral_partner(a.mat, H_elts)
            steps.append((a, None, partner))
            items = []
            for i, (ai, xi, hi) in enumerate(steps):
                items.append(WItem(f"a_{i}", ai.mat, ai.word))
                if xi is not None:
                    items.append(WItem(f"x_{i}", xi.mat, xi.word))
                if hi is not None:
                    items.append(WItem(f"h_{i}", hi.mat, hi.word))
            raise NotNilpotentSignal(
                Witness(
                    kind="commutator_chain",
                    context=context,
                    items=tuple(items),
                    note=(
                        f"a descending commutator chain of {replacements} nontrivial "
                        f"replacements exceeds the class bound {k}; each a_(i+1) equals "
                        "[a_i, x_i] and each a_i fails to commute with h_i"
                    ),
                )
            )


def noncentral_abelian(H_elts, a: Elt, context="input"):
    """The abelian normal subgroup generated by a: a together with the
    generator commutators, verified to commute pairwise."""
    out = [a]
    seen = {a.mat}
    for h in H_elts:
        v = h.commutator(a)
        if v.is_identity() or v.mat in seen:
            continue
        seen.add(v.mat)
        out.append(v)
    for i, x in enumerate(out):
        for y in out[i + 1 :]:
            if not (x.mat * y.mat == y.mat * x.mat):
                raise NotNilpotentSignal(
                    pair_witness(
                        context,
                        x.mat,
                        x.word,
                        y.mat,
                        y.word,
                        note="the would-be abelian normal subgroup fails to commute",
                    )
                )
    return out


def _index_cap(field, n: int) -> int:
    """Budget for the centralizer index: n times the number of available
    roots of unity.  It is not a proven bound on the index in a nilpotent
    group, so exceeding it is a CapExceeded budget error, never a verdict."""
    if isinstance(field, RationalField):
        t = 2
    elif isinstance(field, FiniteField):
        t = field.q - 1
    elif isinstance(field, NumberField):
        t = max_root_of_unity_order(field.degree)
    elif isinstance(field, FunctionField):
        return _index_cap(field.base, n)
    else:
        raise UnsupportedField(field.name())
    return max(2, n * t)


def centralizer_of_abelian(H_elts, A_elts, a: Elt, config: Config = DEFAULT, context="input"):
    """Generators of the centralizer of A in H, by Schreier generators of the
    kernel of g -> [g, a], intersected over the remaining A generators.

    The commutator-value image is enumerated as a Cayley graph lifted to
    the current generators; an image larger than the index cap raises
    CapExceeded.
    """
    if not H_elts:
        return [], Chain4Level(a, list(A_elts), [], [])
    cap = _index_cap(H_elts[0].mat.field, H_elts[0].mat.n)
    current = list(H_elts)
    image_orders = []
    for aprime in [a] + [x for x in A_elts if x.mat != a.mat]:
        if not current:
            break
        if _centralizes(aprime.mat, current):
            continue
        phi_vals = [h.commutator(aprime) for h in current]
        for v in phi_vals:
            if v.is_identity():
                continue
            partner = _noncentral_partner(v.mat, current)
            if partner is not None:
                raise NotNilpotentSignal(
                    pair_witness(
                        context,
                        v.mat,
                        v.word,
                        partner.mat,
                        partner.word,
                        note="a commutator value fails to be central, so the centralizer map is not a homomorphism",
                    )
                )
        enum = enumerate_group([v.mat for v in phi_vals], cap, lift=current)
        if enum.overflowed:
            raise CapExceeded(cap, "centralizer index")
        image_orders.append(len(enum))
        current = _dedup_elts(enum.schreier)
    return current, Chain4Level(a, list(A_elts), list(current), image_orders)


def test_series(G_elts, field, n: int, k: int, config: Config = DEFAULT, context="input") -> Chain4:
    """Descending chain of centralizers of ascending abelian normal
    subgroups; stops when the tail is abelian.

    The chain only builds witnesses: the finite core runs it after the
    Sylow certificate has failed, and its refutations rest on the class
    bound k.  No positive verdict depends on it."""
    levels = []
    current = list(G_elts)
    while not _is_abelian(current):
        if len(levels) >= n:
            raise LoopOverflow(
                f"centralizer chain did not stabilize within {n} steps"
            )
        a = second_central_element(G_elts, current, k, context=context)
        A = noncentral_abelian(current, a, context=context)
        current, level = centralizer_of_abelian(current, A, a, config, context=context)
        levels.append(level)
    return Chain4(levels, list(current))


# ---------------------------------------------------------------------------
# the finite core

def _element_order(mat: Matrix, config: Config, word=None, context="input"):
    m = finite_order(mat, config)
    if m is None:
        raise NotNilpotentSignal(
            Witness(
                kind="infinite_order_element",
                context=context,
                items=(WItem("x", mat, word),),
                note="a series element has infinite order, so the group has no finite completely reducible quotient",
            )
        )
    return m


def _dedup_elts(elts):
    out = []
    seen = set()
    for e in elts:
        if e.mat in seen or e.is_identity():
            continue
        seen.add(e.mat)
        out.append(e)
    return out


def _prime_parts(seq, config: Config, context="input"):
    """The distinct nontrivial prime-power parts of the elements of seq, per
    prime, in order of first appearance; an element of infinite order
    raises the signal."""
    parts: dict = {}
    seen: dict = {}
    for x in seq:
        m = _element_order(x.mat, config, x.word, context)
        for p, e in factorint(m).items():
            mp = m // p**e
            c = pow(mp, -1, p**e)
            t = mp * c % m
            xp = Elt(x.mat**t, x.word * t)
            if xp.is_identity() or xp.mat in seen.setdefault(p, set()):
                continue
            seen[p].add(xp.mat)
            parts.setdefault(p, []).append(xp)
    return parts


def _cross_prime_pair(parts):
    """The first (p, q, x, y) with x, y parts for distinct primes p < q that
    fail to commute, or None."""
    primes = sorted(parts)
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            for x in parts[p]:
                for y in parts[q]:
                    if not (x.mat * y.mat == y.mat * x.mat):
                        return p, q, x, y
    return None


def _sylow_certificate(elts, config: Config):
    """The Sylow system of <elts> when the inputs' prime parts certify that
    it is finite and nilpotent, else None; never a verdict or an error.

    If parts for distinct primes commute and the p-parts close within the
    cap into a p-group Q_p for every p, then each input is the product of
    its parts (the exponents sum to 1 mod its order), so G = prod Q_p is
    the direct product of its Sylow subgroups, which is to say nilpotent.
    The components' enumerations stay with the system, which reads the
    center off them.
    """
    try:
        parts = _prime_parts(elts, config)
    except (NotNilpotentSignal, CapExceeded):
        return None
    if _cross_prime_pair(parts) is not None:
        return None
    orders, enums = {}, {}
    for p in sorted(parts):
        enum = enumerate_group([x.mat for x in parts[p]], config.closure_cap)
        if enum.overflowed or set(factorint(len(enum))) - {p}:
            return None
        orders[p], enums[p] = len(enum), enum
    return SylowSystem(parts, orders, enums=enums)


def _finite_nilpotent_core(elts, field, n, config: Config, context="input"):
    """Nilpotency of a group expected to be finite.  The Sylow certificate
    decides every positive verdict.  When it fails, the centralizer chain
    runs only to refute: a signal from it, or from the Sylow test over the
    inputs plus its A and C terms, is the negative verdict's witness.
    """
    elts = _dedup_elts(elts)
    sylow = _sylow_certificate(elts, config)
    if sylow is not None:
        return Verdict(True, artifacts={"sylow": sylow, "order": sylow.order})
    k = config.class_bound_override or class_bound(field, n)
    chain = test_series(elts, field, n, k, config, context=context)
    for c in chain.final_abelian:
        _element_order(c.mat, config, c.word, context)
    seq = list(elts)
    for level in chain.levels:
        seq.extend(level.A)
        seq.extend(level.C)
    return _sylow_refutation(_dedup_elts(seq), config, context)


def _sylow_refutation(seq, config: Config, context="input") -> Verdict:
    """The negative verdict from the Sylow test on seq: a cross-prime pair
    that fails to commute, or a component that is not a p-group, with an
    element whose order has another prime as witness; a component past the
    cap raises CapExceeded.

    seq starts with the inputs of a failed certificate, so its parts
    contain theirs and passing here would pass the certificate too; the
    end is unreachable, and reaching it is an error, never a verdict.
    """
    parts = _prime_parts(seq, config, context)
    pair = _cross_prime_pair(parts)
    if pair is not None:
        p, q, x, y = pair
        return Verdict(
            False,
            pair_witness(
                context,
                x.mat,
                x.word,
                y.mat,
                y.word,
                note=f"prime parts for {p} and {q} fail to commute",
            ),
        )
    for p in sorted(parts):
        enum = enumerate_group([x.mat for x in parts[p]], config.closure_cap)
        if enum.overflowed:
            raise CapExceeded(config.closure_cap, "subgroup closure")
        size = len(enum)
        if set(factorint(size)) - {p}:
            items = ()
            for y, tree_word in zip(enum.vertices, enum.words):
                try:
                    m = finite_order(y, config)
                except CapExceeded:
                    continue
                if m is not None and set(factorint(m)) - {p}:
                    word = word_mul(*(parts[p][i].word for i, _ in tree_word))
                    items = (WItem("y", y, word, {"order": m, "prime": p}),)
                    break
            note = f"the component for prime {p} closes into a group of order {size}, not a power of {p}"
            return Verdict(
                False,
                Witness(kind="non_p_element", context=context, items=items, note=note),
            )
    raise AssertionError("the Sylow test passed on parts whose input parts failed the certificate")


def is_finite_nilpotent(G: GroupSpec, config: Config = DEFAULT) -> Verdict:
    """Nilpotency with Sylow decomposition for groups over finite fields."""
    try:
        return _finite_nilpotent_core(G.elts(), G.field, G.degree, config)
    except NotNilpotentSignal as s:
        return Verdict(False, s.witness)


# ---------------------------------------------------------------------------
# adjoint representation

def adjoint_rep(G: GroupSpec) -> AdjointData:
    """Conjugation action of the generators on a spin basis of the
    enveloping algebra."""
    if not G.gens:
        basis = spin_basis([G.identity])
        return AdjointData(basis, [])
    basis = spin_basis(list(G.gens))
    adj = []
    for g, ginv in zip(G.gens, G.invs):
        cols = []
        for b in basis.mats:
            x = g * b * ginv
            coords = basis.coords(x)
            if coords is None:
                raise ArithmeticError("enveloping algebra is not conjugation closed")
            cols.append(coords)
        m = basis.dim
        adj.append(Matrix(G.field, tuple(tuple(cols[j][i] for j in range(m)) for i in range(m))))
    return AdjointData(basis, adj)


def require_semisimple_gens(G: GroupSpec) -> None:
    """Raise NotSemisimple unless every generator's minimal polynomial is
    squarefree, i.e. every generator is diagonalizable over a perfect field."""
    for i, g in enumerate(G.gens):
        h = minimal_polynomial(g)
        if poly_gcd(h, h.derivative()).degree != 0:
            raise NotSemisimple(f"generator {i} is not diagonalizable")


def is_nilpotent_adjoint(G: GroupSpec, config: Config = DEFAULT) -> Verdict:
    """Nilpotency test through the adjoint representation; the input
    generators must be diagonalizable."""
    require_semisimple_gens(G)
    if not G.gens or all(g.is_identity() for g in G.gens):
        return Verdict(True, artifacts={"order": 1, "adjoint_trivial": True})
    ad = adjoint_rep(G)
    m = ad.dim
    F = G.field
    adj_elts = [Elt(x, ((i, 1),)) for i, x in enumerate(ad.adj_gens)]
    for i, x in enumerate(ad.adj_gens):
        jp = jordan(x)
        if not jp.u.is_identity():
            return Verdict(
                False,
                Witness(
                    kind="nontrivial_unipotent_part",
                    context="adjoint",
                    items=(
                        WItem("g", x, ((i, 1),)),
                        WItem("s", jp.s),
                        WItem("u", jp.u),
                    ),
                    note="an adjoint generator has a nontrivial unipotent part",
                ),
                artifacts={"adjoint": ad},
            )
    try:
        core = _finite_nilpotent_core(adj_elts, F, m, config, context="adjoint")
    except NotNilpotentSignal as s:
        return Verdict(False, s.witness, artifacts={"adjoint": ad})
    core.artifacts["adjoint"] = ad
    return core


# ---------------------------------------------------------------------------
# the top-level test

def _attach_context_gens(witness: Witness, gens) -> Witness:
    items = tuple(witness.items) + tuple(
        WItem(f"context_gen_{i}", g) for i, g in enumerate(gens)
    )
    return Witness(witness.kind, witness.context, items, witness.note)


def is_nilpotent(G: GroupSpec, config: Config = DEFAULT) -> Verdict:
    """Nilpotency of a finitely generated matrix group over any supported field.

    Over an infinite field the group is reduced onto a finite image, whose
    verdict comes first; the congruence kernel must then be central.  In
    characteristic zero only the diagonalizable parts are reduced; char-p
    function fields are imperfect, so the generators are reduced as given.
    """
    if not G.gens or G.is_trivial():
        return Verdict(True, artifacts={"order": 1, "trivial": True})
    F = G.field
    if isinstance(F, FiniteField):
        return is_finite_nilpotent(G, config)
    char_p = isinstance(F, FunctionField) and F.characteristic() > 0
    artifacts = {}
    if char_p:
        Gs = G
    else:
        try:
            split = reduction_split(G, config)
        except NotNilpotentSignal as s:
            return Verdict(False, s.witness)
        artifacts["split"] = split
        if all(s.is_identity() for s in split.gens_s):
            artifacts["unipotent"] = True
            return Verdict(True, artifacts=artifacts)
        Gs = GroupSpec(F, split.gens_s)
    cd = select_modulus(Gs, config)
    artifacts["congruence"] = cd
    image_gens = [apply_congruence(g, cd) for g in Gs.gens]
    artifacts["image_gens"] = image_gens
    v_img = is_finite_nilpotent(GroupSpec(cd.target, image_gens), config)
    if not v_img.nilpotent:
        w = v_img.witness
        where = "evaluation" if char_p else "congruence"
        w = Witness(w.kind, "image", w.items, w.note + f" (found in the {where} image)")
        return Verdict(False, _attach_context_gens(w, image_gens), artifacts)
    artifacts["image_sylow"] = v_img.artifacts.get("sylow")
    artifacts["image_order"], kernel = congruence_kernel(Gs, image_gens, config.cayley_cap)
    artifacts["kernel_gens"] = kernel
    ok, bad = kernel_is_central(Gs, kernel)
    if ok:
        return Verdict(True, artifacts=artifacts)
    if char_p:
        return _refute_char_p(G, kernel, artifacts)
    z, gi = bad
    w = Witness(
        kind="noncentral_kernel_element",
        context="s_parts",
        items=(
            WItem("z", z.mat, z.word),
            WItem("g", Gs.gens[gi], ((gi, 1),)),
        ),
        note=(
            "a congruence kernel generator (a relator of the finite image "
            "evaluated over the diagonalizable parts) is not central"
        ),
    )
    return Verdict(False, _attach_context_gens(w, Gs.gens), artifacts)


def _refute_char_p(G: GroupSpec, kernel, artifacts) -> Verdict:
    """A char-p evaluation kernel that is not central decides nilpotency
    only through a non-unipotent commutator; otherwise the deciding
    machinery is beyond the implemented one."""
    # In a nilpotent group the semisimple parts form a homomorphic image in
    # which the evaluation kernel lands centrally, so every commutator of a
    # kernel generator against a generator must be unipotent.  A
    # non-unipotent one refutes nilpotency outright.  The identity's
    # commutators are trivial and a repeated matrix gives the commutators of
    # its first occurrence, so each distinct nontrivial one is tried once.
    seen = set()
    for z in kernel:
        if z.is_identity() or z.mat in seen:
            continue
        seen.add(z.mat)
        zinv = inverse(z.mat)
        for i, (g, ginv) in enumerate(zip(G.gens, G.invs)):
            c = zinv * ginv * z.mat * g
            if not is_unipotent_matrix(c):
                return Verdict(
                    False,
                    Witness(
                        kind="non_unipotent_commutator",
                        context="input",
                        items=(
                            WItem("z", z.mat, z.word),
                            WItem("g", g, ((i, 1),)),
                            WItem("c", c),
                        ),
                        note=(
                            "a commutator of an evaluation kernel generator with a group "
                            "generator is not unipotent; in a nilpotent group it would be"
                        ),
                    ),
                    artifacts,
                )
    raise VerdictUnavailable(
        "the evaluation image is nilpotent and all kernel commutators are unipotent, "
        "but a kernel generator is not central; deciding nilpotency here needs the "
        "unipotent-radical machinery, which is not provided"
    )
