"""Nilpotency decisions.

A finite group is nilpotent exactly when it is the direct product of its
Sylow subgroups, and one Sylow test decides every finite verdict both
ways: the input generators are split into prime-power parts, parts for
distinct primes must commute, and the parts for each prime must close into
a p-group.  A failure of either is the negative verdict, and its witness
replays; a closure past its cap is a budget error, never a verdict.  No
verdict rests on a bound on the nilpotency class.  Over infinite fields the
group is split into diagonalizable and unipotent parts, the diagonalizable
part is reduced through a validated congruence, and the verdict combines
the finite image verdict with centrality of the congruence kernel.

The verdict's Sylow systems, with the Cayley tables of their components,
are also what structure.analyze reads the center and the primary
decomposition off, for infinite groups through the congruence image.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

from .config import DEFAULT, Config
from .congruence import apply_congruence, congruence_kernel, kernel_is_central, select_modulus
from .errors import CapExceeded, NotNilpotentSignal, VerdictUnavailable
from .fields import FiniteField, FunctionField
from .groups import Elt, GroupSpec, dedup_elts, enumerate_group, word_mul
from .linalg import Matrix, inverse
from .numth import factorint
from .splitting import finite_order, is_unipotent_matrix, reduction_split, s_part_group
from .witness import WItem, Witness


# ---------------------------------------------------------------------------
# data carried by verdicts

@dataclass
class SylowSystem:
    components: dict       # prime -> list of Elt
    orders: dict           # prime -> verified component order
    central_part: tuple = ()
    # prime -> the Sylow test's Enumeration of the component, over its elements
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
class Verdict:
    nilpotent: bool
    witness: Witness | None = None
    artifacts: dict = dfield(default_factory=dict)


# ---------------------------------------------------------------------------
# the finite core

def _element_order(mat: Matrix, word=None):
    m = finite_order(mat)
    if m is None:
        raise NotNilpotentSignal(
            Witness(
                kind="infinite_order_element",
                context="input",
                items=(WItem("x", mat, word),),
                note="an input element has infinite order, so the group has no finite completely reducible quotient",
            )
        )
    return m


def _prime_parts(seq):
    """The distinct nontrivial prime-power parts of the elements of seq, per
    prime, in order of first appearance; an element of infinite order
    raises the signal."""
    parts: dict = {}
    seen: dict = {}
    for x in seq:
        m = _element_order(x.mat, x.word)
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


def _sylow_test(elts, config: Config) -> Verdict:
    """Nilpotency of the finite group <elts>, decided both ways by its
    Sylow system in one pass over the inputs' prime parts.

    If parts for distinct primes commute and the p-parts close within the
    cap into a p-group Q_p for every p, then each input is the product of
    its parts (the exponents sum to 1 mod its order), so G = prod Q_p is
    the direct product of its Sylow subgroups, which is to say nilpotent.
    The components' enumerations stay with the system, which reads the
    center off them.  Otherwise G is not nilpotent, since in a nilpotent
    group elements of coprime orders commute and the p-elements form a
    subgroup: a cross-prime pair that fails to commute, or an element of
    the p-parts' closure whose order is not a power of p, is the witness.
    An input of infinite order raises the signal, and a component past
    the cap raises CapExceeded.
    """
    parts = _prime_parts(dedup_elts(elts))
    pair = _cross_prime_pair(parts)
    if pair is not None:
        p, q, x, y = pair
        return Verdict(
            False,
            Witness(
                kind="non_commuting_pair",
                context="input",
                items=(WItem("x", x.mat, x.word, {"prime": p}), WItem("y", y.mat, y.word, {"prime": q})),
                note=f"prime parts for {p} and {q} fail to commute",
            ),
        )
    orders, enums = {}, {}
    for p in sorted(parts):
        enum = enumerate_group([x.mat for x in parts[p]], config.closure_cap)
        if enum.overflowed:
            raise CapExceeded(config.closure_cap, "subgroup closure")
        if set(factorint(len(enum))) - {p}:
            return Verdict(False, _non_p_witness(p, parts[p], enum))
        orders[p], enums[p] = len(enum), enum
    sylow = SylowSystem(parts, orders, enums=enums)
    return Verdict(True, artifacts={"sylow": sylow, "order": sylow.order})


def _non_p_witness(p, parts, enum) -> Witness:
    """The p-parts, each with its word over the tested group's generators,
    and the first element y of their closure whose order is not a power of
    p, with its tree word over the parts (data["parts_word"]) and over
    those generators."""
    items = tuple(WItem(f"part_{i}", x.mat, x.word, {"prime": p}) for i, x in enumerate(parts))
    for y, tree_word in zip(enum.vertices, enum.words):
        m = finite_order(y)
        if set(factorint(m)) - {p}:
            word = word_mul(*(parts[i].word for i, _ in tree_word))
            data = {"order": m, "prime": p, "parts_word": [[i, e] for i, e in tree_word]}
            items += (WItem("y", y, word, data),)
            break
    note = f"the component for prime {p} closes into a group of order {len(enum)}, not a power of {p}"
    return Witness(kind="non_p_element", context="input", items=items, note=note)


def is_finite_nilpotent(G: GroupSpec, config: Config = DEFAULT) -> Verdict:
    """Nilpotency with Sylow decomposition for groups over finite fields."""
    try:
        return _sylow_test(G.elts(), config)
    except NotNilpotentSignal as s:
        return Verdict(False, s.witness)


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
    characteristic zero only the diagonalizable parts are reduced, and
    modulus selection takes their minimal polynomials from the split; char-p
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
        Gs, minpolys = G, None
    else:
        try:
            split = reduction_split(G)
        except NotNilpotentSignal as s:
            return Verdict(False, s.witness)
        artifacts["split"] = split
        if all(s.is_identity() for s in split.gens_s):
            artifacts["unipotent"] = True
            return Verdict(True, artifacts=artifacts)
        Gs, minpolys = s_part_group(G, split), split.minpolys_s
    cd = select_modulus(Gs, config, minpolys)
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
    for z in dedup_elts(kernel):
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
