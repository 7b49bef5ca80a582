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

The image's Sylow test also yields the kernel, with no second
enumeration.  Let phi: G_s -> H send the diagonalizable parts s_i to the
image generators h_i, and let H be nilpotent, so H = prod Q_p with Q_p
generated by the kept p-parts x of the h_i.  Each x = h_i^t has the source
part y = s_i^t, with phi(y) = x.  H is presented on the x and the s_i by
(Holt, Eick & O'Brien, Handbook of Computational Group Theory, 2005,
ch. 5):
  - each Q_p's Schreier relators on its parts;
  - the commutators [x, x'] of parts for distinct primes, which present
    the direct product;
  - one Tietze relator per s_i, equating it with the product of its parts
    (a part dropped as a duplicate is written through the kept one, and
    an s_i with h_i = 1 has none).
Let F be free on symbols for the s_i and the y, mapped by psi onto G_s.
Then phi psi: F -> H is onto, so ker phi = psi(ker phi psi), which is the
normal closure in G_s of the relators evaluated at the s_i and the y: the
Schreier generators of each Q_p's enumeration lifted by its source parts,
the s_i (prod y)^-1, and the commutators of source parts for distinct
primes.  Each Q_p is enumerated once, so the work is sum |Q_p|, where
the image has prod |Q_p| elements.  The consumers need only that these
normally generate the kernel: a central normal generator is its own
normal closure, so once every one commutes with the s_i they generate the
kernel as a subgroup.

The verdict's Sylow systems, with the Cayley tables of their components,
are also what structure.analyze reads the center and the primary
decomposition off, for infinite groups through the congruence image.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

from .config import DEFAULT, Config
from .congruence import apply_congruence, kernel_is_central, select_modulus
from .errors import CapExceeded, NotNilpotentSignal, VerdictUnavailable
from .fields import FiniteField, FunctionField
from .groups import Elt, GroupSpec, dedup_elts, enumerate_group, word_inverse, word_mul
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
                word = word_mul(*(parts[i].word for i, _ in enum.word(v)))
                out.append(Elt(enum.vertex(v), word))
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
    """(parts, covers): the distinct prime-power parts of the elements of
    seq, per prime, in order of first appearance; and per element its
    cover, one (p, j, t) for each prime p dividing its order, its p-part
    being x^t = parts[p][j].  The identity's cover is empty, and a
    repeated element has its first occurrence's.  An element of infinite
    order raises the signal."""
    parts: dict = {}
    index: dict = {}
    memo: dict = {}
    covers = []
    for x in seq:
        cover = memo.get(x.mat)
        if cover is None:
            cover = memo[x.mat] = []
            if not x.is_identity():
                m = _element_order(x.mat, x.word)
                for p, e in factorint(m).items():
                    mp = m // p**e
                    t = mp * pow(mp, -1, p**e) % m
                    xp = x.mat**t
                    j = index.setdefault((p, xp), len(parts.setdefault(p, [])))
                    if j == len(parts[p]):
                        parts[p].append(Elt(xp, x.word * t))
                    cover.append((p, j, t))
        covers.append(cover)
    return parts, covers


def _cross_prime_pairs(parts):
    """Each (p, q, x, y) with x, y parts for distinct primes p < q, lazily."""
    primes = sorted(parts)
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            for x in parts[p]:
                for y in parts[q]:
                    yield p, q, x, y


def _source_parts(lift, covers):
    """Per prime, the source part of each kept part: lift[i]^t for the
    first element i whose cover holds it, with exponent t."""
    out: dict = {}
    for s, cover in zip(lift, covers):
        for p, j, t in cover:
            if j == len(out.setdefault(p, [])):
                out[p].append(Elt(s.mat**t, s.word * t))
    return out


def _tietze_relators(lift, covers, sources):
    """The nontrivial s y^-1, one per source generator s, with y the
    product of the source parts of s's parts, each written through the
    kept part; an s whose image is the identity has no parts and gives
    itself."""
    for s, cover in zip(lift, covers):
        ys = [sources[p][j] for p, j, _ in cover]
        if not ys:
            if not s.is_identity():
                yield s
            continue
        y = ys[0]
        for x in ys[1:]:
            y = y * x
        if not (y.mat == s.mat):
            yield Elt(s.mat * inverse(y.mat), word_mul(s.word, word_inverse(y.word)))


def _cross_prime_commutators(sources):
    """The nontrivial commutators x^-1 y^-1 x y of source parts x, y for
    distinct primes."""
    for _, _, x, y in _cross_prime_pairs(sources):
        xy, yx = x.mat * y.mat, y.mat * x.mat
        if not (xy == yx):
            word = word_mul(word_inverse(x.word), word_inverse(y.word), x.word, y.word)
            yield Elt(inverse(yx) * xy, word)


def _sylow_test(elts, config: Config, lift=None) -> Verdict:
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
    the cap raises CapExceeded.  A nilpotent verdict keeps each input's
    cover (artifact "covers", see _prime_parts), from which analyze reads
    the unipotent parts over GF(q).

    With `lift` (one source Elt per input, a source group mapping onto G
    by lift[i] -> elts[i]), each Q_p is enumerated lifted by its parts'
    source parts, and a nilpotent verdict also carries normal generators
    of the kernel of that map (artifact "kernel_gens"), none of them the
    identity: the Q_p's Schreier generators, then the Tietze relators,
    then the cross-prime commutators (see the module docstring).
    """
    parts, covers = _prime_parts(elts)
    for p, q, x, y in _cross_prime_pairs(parts):
        if not (x.mat * y.mat == y.mat * x.mat):
            return Verdict(
                False,
                Witness(
                    kind="non_commuting_pair",
                    context="input",
                    items=(WItem("x", x.mat, x.word, {"prime": p}), WItem("y", y.mat, y.word, {"prime": q})),
                    note=f"prime parts for {p} and {q} fail to commute",
                ),
            )
    sources = _source_parts(lift, covers) if lift is not None else {}
    orders, enums, kernel = {}, {}, []
    for p in sorted(parts):
        enum = enumerate_group([x.mat for x in parts[p]], config.closure_cap, sources.get(p))
        if enum.overflowed:
            raise CapExceeded(config.closure_cap, "subgroup closure")
        if set(factorint(len(enum))) - {p}:
            return Verdict(False, _non_p_witness(p, parts[p], enum))
        orders[p], enums[p] = len(enum), enum
        kernel += enum.schreier
    sylow = SylowSystem(parts, orders, enums=enums)
    artifacts = {"sylow": sylow, "order": sylow.order, "covers": covers}
    if lift is not None:
        kernel += _tietze_relators(lift, covers, sources)
        kernel += _cross_prime_commutators(sources)
        artifacts["kernel_gens"] = kernel
    return Verdict(True, artifacts=artifacts)


def _non_p_witness(p, parts, enum) -> Witness:
    """The p-parts, each with its word over the tested group's generators,
    and the first element y of their closure whose order is not a power of
    p, with its tree word over the parts (data["parts_word"]) and over
    those generators."""
    items = tuple(WItem(f"part_{i}", x.mat, x.word, {"prime": p}) for i, x in enumerate(parts))
    for v in range(len(enum)):
        y = enum.vertex(v)
        m = finite_order(y)
        if set(factorint(m)) - {p}:
            tree_word = enum.word(v)
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
    verdict comes first; the congruence kernel must then be central.  One
    Sylow test on the image, lifted to the reduced group, gives both the
    image verdict and the kernel's normal generators (module docstring).  In
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
    image = [Elt(h, ((i, 1),)) for i, h in enumerate(image_gens)]
    v_img = _sylow_test(image, config, lift=Gs.elts())
    if not v_img.nilpotent:
        w = v_img.witness
        where = "evaluation" if char_p else "congruence"
        w = Witness(w.kind, "image", w.items, w.note + f" (found in the {where} image)")
        return Verdict(False, _attach_context_gens(w, image_gens), artifacts)
    artifacts["image_sylow"], artifacts["image_order"] = v_img.artifacts["sylow"], v_img.artifacts["order"]
    kernel = artifacts["kernel_gens"] = v_img.artifacts["kernel_gens"]
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
    # non-unipotent one refutes nilpotency outright.  A repeated matrix
    # gives the commutators of its first occurrence, so each distinct one
    # is tried once.
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
