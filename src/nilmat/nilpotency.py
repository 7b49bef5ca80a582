"""Nilpotency decisions.

A finite group is nilpotent exactly when it is the direct product of its
Sylow subgroups, and one Sylow test decides every finite verdict both
ways: the input generators are split into prime-power parts by their
orders over GF(q) (the group's own field, or its finite image's), parts
for distinct primes must commute, and the parts for each prime must close
into a p-group.  A failure of either is the negative verdict, and its witness
replays; a closure past its cap is a budget error, never a verdict.  No
verdict rests on a bound on the nilpotency class.  Over every infinite
field, GF(q)(X) included, the group is split into diagonalizable and
unipotent parts, the diagonalizable part is reduced through a validated
congruence, and the verdict combines the finite image verdict with
centrality of the congruence kernel: a central extension of a nilpotent
image is nilpotent, and the kernel of a nilpotent G_s is torsion-free
(congruence), hence central, as it meets the finite derived group of the
center-by-finite G_s trivially (Detinko & Flannery, LMS J. Comput. Math.
9, 2006).  Over GF(q)(X) the split may need p-th roots that the field
lacks; it is then taken over GF(q)(Y), X = Y^(p^k), where the input group
has an isomorphic copy, for the least k that gives them (splitting).

Once the image's Sylow test has found it nilpotent, its Cayley tables
also yield the kernel, with no second enumeration (_kernel_gens).  Let
phi: G_s -> H send the diagonalizable parts s_i to the image generators
h_i, and let H be nilpotent, so H = prod Q_p with Q_p generated by the
kept p-parts x of the h_i.  Each x = h_i^t has the source part y = s_i^t,
with phi(y) = x.  H is presented on the x and the s_i by
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
Schreier generators of each Q_p's finished table lifted by its source
parts (groups.schreier_generators), the s_i (prod y)^-1, and the
commutators of source parts for distinct primes.  Each Q_p is enumerated
once and walked once more, so the work is sum |Q_p|, where the image has
prod |Q_p| elements, and a negative image verdict lifts nothing.  The
walk runs on source row ids and forms no matrix product: a Schreier
generator's rows are carried up its target's tree path by the parts'
inverses, and each distinct one is decoded once.  The list keeps each
distinct matrix once, so its consumers never deduplicate it.  They need
only that these normally generate the kernel: a central normal
generator is its own normal closure, so once every one commutes with
the s_i they generate the kernel as a subgroup.  kernel_is_central
tests that on the rows of every z s_i and s_i z, with no matrix product
either.

The verdict's Sylow systems, with the Cayley tables of their components,
are also what structure.analyze reads the center and the primary
decomposition off, for infinite groups through the congruence image.
"""

from __future__ import annotations

from .config import DEFAULT, Config
from .congruence import apply_congruence, kernel_is_central, select_modulus
from .errors import CapExceeded, ImperfectField, NotNilpotentSignal
from .fields import FiniteField
from .groups import Elt, GroupSpec, enumerate_group, schreier_generators, word_inverse, word_mul
from .linalg import Matrix, inverse
from .numth import factorint
from .record import Record
from .splitting import finite_order, reduction_split, s_part_group
from .witness import WItem, Witness


# ---------------------------------------------------------------------------
# data carried by verdicts

class SylowSystem(Record):
    __slots__ = (
        "components",       # prime -> list of Elt
        "orders",           # prime -> verified component order
        "central_part",
        "enums",            # prime -> the Sylow test's Enumeration of the component, over its elements
    )
    _compared = ("components", "orders", "central_part")

    def __init__(self, components, orders, central_part=(), enums=None):
        self.components, self.orders, self.central_part = components, orders, central_part
        self.enums = {} if enums is None else enums

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


class Verdict(Record):
    __slots__ = ("nilpotent", "witness", "artifacts")

    def __init__(self, nilpotent, witness=None, artifacts=None):
        self.nilpotent, self.witness, self.artifacts = nilpotent, witness, {} if artifacts is None else artifacts


# ---------------------------------------------------------------------------
# the finite core

def _prime_parts(seq, orders=None):
    """(parts, covers): the distinct prime-power parts of the elements of
    seq, per prime, in order of first appearance; and per element its
    cover, one (p, j, t) for each prime p dividing its order, its p-part
    being x^t = parts[p][j].  The identity's cover is empty, and a
    repeated element has its first occurrence's.  The orders are given,
    or the elements lie over GF(q), where finite_order gives them."""
    parts: dict = {}
    index: dict = {}
    memo: dict = {}
    covers = []
    for k, x in enumerate(seq):
        cover = memo.get(x.mat)
        if cover is None:
            cover = memo[x.mat] = []
            if not x.is_identity():
                m = finite_order(x.mat) if orders is None else orders[k]
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


def _kernel_gens(lift, covers, sylow) -> list:
    """Normal generators of the kernel of the map lift[i] -> image input i
    onto a nilpotent image with Sylow system `sylow` and input covers
    `covers`, each distinct matrix once, none the identity: the Q_p's
    Schreier generators, then the Tietze relators, then the cross-prime
    commutators (see the module docstring)."""
    sources = _source_parts(lift, covers)
    kernel = [z for p, enum in sylow.enums.items() for z in schreier_generators(enum, sources[p])]
    kernel += _tietze_relators(lift, covers, sources)
    kernel += _cross_prime_commutators(sources)
    distinct = {}
    for z in kernel:
        distinct.setdefault(z.mat, z)
    return list(distinct.values())


def _sylow_test(elts, config: Config, orders=None) -> Verdict:
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
    A component past the cap raises CapExceeded.  The elements lie over
    GF(q), the input group itself or a congruence image, unless their
    orders are given (a finite group over GF(q)(X), see structure).  A
    nilpotent verdict keeps each input's cover (artifact "covers", see
    _prime_parts), from which analyze reads the unipotent parts over GF(q)
    and _kernel_gens the source parts.
    """
    parts, covers = _prime_parts(elts, orders)
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
    orders, enums = {}, {}
    for p in sorted(parts):
        enum = enumerate_group([x.mat for x in parts[p]], config.closure_cap)
        if enum.overflowed:
            raise CapExceeded(config.closure_cap, "subgroup closure")
        if set(factorint(len(enum))) - {p}:
            return Verdict(False, _non_p_witness(p, parts[p], enum))
        orders[p], enums[p] = len(enum), enum
    sylow = SylowSystem(parts, orders, enums=enums)
    return Verdict(True, artifacts={"sylow": sylow, "order": sylow.order, "covers": covers})


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


def is_finite_nilpotent(G: GroupSpec, config: Config = DEFAULT, orders=None) -> Verdict:
    """Nilpotency with Sylow decomposition for a group over a finite field,
    or for a finite group whose generators' orders are given."""
    return _sylow_test(G.elts(), config, orders)


# ---------------------------------------------------------------------------
# the top-level test

def _attach_context_gens(witness: Witness, gens) -> Witness:
    items = tuple(witness.items) + tuple(
        WItem(f"context_gen_{i}", g) for i, g in enumerate(gens)
    )
    return Witness(witness.kind, witness.context, items, witness.note)


def _over_root(G: GroupSpec, m: int) -> GroupSpec:
    """G over GF(q)(Y) with X = Y^m, written over the same field object:
    each entry a(X)/b(X) becomes a(Y^m)/b(Y^m), still in lowest terms with
    a monic denominator, since s a + t b = 1 gives s(Y^m) a(Y^m) +
    t(Y^m) b(Y^m) = 1."""
    F = G.field
    zero = F.base.zero

    def spread(cs):
        out = [zero] * (m * (len(cs) - 1) + 1) if cs else []
        out[::m] = cs
        return tuple(out)

    return GroupSpec(F, [Matrix(F, tuple(tuple((spread(a), spread(b)) for a, b in row) for row in g.rows)) for g in G.gens])


def is_nilpotent(G: GroupSpec, config: Config = DEFAULT) -> Verdict:
    """Nilpotency of a finitely generated matrix group over any supported field.

    Over an infinite field the generators are split into diagonalizable
    and unipotent parts, and the diagonalizable parts are reduced onto a
    finite image, whose verdict comes first; the congruence kernel must
    then be central.  One Sylow test on the image gives its verdict, and
    only a nilpotent image's tables are walked again for the kernel's
    normal generators (module docstring).  Modulus selection takes the
    minimal polynomials from the split.  Over GF(q)(X) the split is taken
    over GF(q)(Y), X = Y^(p^k), for the least k at which it exists
    (splitting module docstring), and artifacts["root_power"] records
    p^k when k > 0: the matrices from the split, and all that is built
    from them, have their entries in Y.
    """
    if not G.gens or G.is_trivial():
        return Verdict(True, artifacts={"order": 1, "trivial": True})
    if isinstance(G.field, FiniteField):
        return is_finite_nilpotent(G, config)
    artifacts, H = {}, G
    while True:
        try:
            split = artifacts["split"] = reduction_split(H)
            break
        except ImperfectField:
            m = artifacts.get("root_power", 1)
            if m >= G.degree:
                raise
            artifacts["root_power"] = m * G.field.characteristic()
            H = _over_root(G, artifacts["root_power"])
        except NotNilpotentSignal as s:
            return Verdict(False, s.witness, artifacts)
    Gs = artifacts["s_parts"] = s_part_group(H, split)
    if all(s.is_identity() for s in split.gens_s):
        artifacts["unipotent"] = True
        return Verdict(True, artifacts=artifacts)
    cd = select_modulus(Gs, config, split.minpolys_s)
    artifacts["congruence"] = cd
    image_gens = [apply_congruence(g, cd) for g in Gs.gens]
    artifacts["image_gens"] = image_gens
    image = [Elt(h, ((i, 1),)) for i, h in enumerate(image_gens)]
    v_img = _sylow_test(image, config)
    if not v_img.nilpotent:
        w = v_img.witness
        w = Witness(w.kind, "image", w.items, w.note + " (found in the congruence image)")
        return Verdict(False, _attach_context_gens(w, image_gens), artifacts)
    sylow = artifacts["image_sylow"] = v_img.artifacts["sylow"]
    artifacts["image_order"] = v_img.artifacts["order"]
    kernel = artifacts["kernel_gens"] = _kernel_gens(Gs.elts(), v_img.artifacts["covers"], sylow)
    ok, bad = kernel_is_central(Gs, kernel)
    if ok:
        return Verdict(True, artifacts=artifacts)
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
