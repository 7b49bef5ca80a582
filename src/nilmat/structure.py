"""Structural report for a finitely generated matrix group.

`analyze` decides nilpotency once and answers every structural question
the paper asks of a nilpotent group (finiteness, order, complete
reducibility, the primary/Sylow decomposition and the center) from that
one verdict's artifacts: the Jordan split, the congruence or evaluation
image with its Sylow system, and the kernel's normal generators.  No step
reruns the verdict or recomputes what it carries.  Over GF(q) nothing is
split at all: a generator's unipotent part is its Sylow part for the
characteristic, which the verdict already holds.

The normal generators come from the image's Sylow test, lifted one Sylow
subgroup at a time (nilpotency), and none is the identity.  A nilpotent
verdict has found each of them central, and a central normal generator
is its own normal closure, so together they generate the kernel as a
subgroup: the kernel is trivial exactly when there are none, and over
char-p function fields its order is their closure's.

The center is read off the Cayley tables that the Sylow certificate
enumerated (Z(G) is the product of the Sylow subgroups' centers), with no
matrix products.  Over an infinite field the tables are the congruence
image H's, and they serve an infinite group too: the congruence kernel K
of the diagonalizable part G_s is central (the verdict checked it) and
torsion-free, so Z(G_s) is the preimage of Z(H).  For g mapping into
Z(H), x -> [g, x] is a homomorphism G_s -> K; with e = exp(H), x^e lies
in K, so [g, x]^e = [g, x^e] = 1, and [g, x] = 1.  Hence Z(G_s) is
generated by the pulled-back generators of Z(H) with the kernel's, and
G_s/Z(G_s) = H/Z(H): the primary components of an infinite group are
those of H modulo its center, one per prime p whose Sylow subgroup Q_p of
H is nonabelian.  In characteristic 0 no enumeration runs beyond the
verdict's."""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

from .config import DEFAULT, Config
from .errors import CapExceeded, VerdictUnavailable
from .fields import FiniteField, FunctionField
from .groups import Elt, GroupSpec, dedup_elts, enumerate_group
from .nilpotency import SylowSystem, is_nilpotent
from .splitting import finite_order, is_unipotent_group, s_part_group
from .witness import WItem, Witness


@dataclass
class StructureReport:
    nilpotent: bool
    finite: bool | None = None
    order: int | None = None
    completely_reducible: bool | None = None
    cr_series_dims: list | None = None
    primary: SylowSystem | None = None
    primary_is_extension: bool = False
    center_gens: list | None = None
    witness: Witness | None = None
    route: str = ""
    notes: list = dfield(default_factory=list)


def analyze(G: GroupSpec, config: Config = DEFAULT) -> StructureReport:
    """Full structural report: nilpotency first, then every query that
    applies to the input, each answered from the verdict's artifacts."""
    verdict = is_nilpotent(G, config)
    if not verdict.nilpotent:
        return StructureReport(nilpotent=False, witness=verdict.witness)
    a = verdict.artifacts
    F = G.field
    char_p = isinstance(F, FunctionField) and F.characteristic() > 0
    fin, route, witness = _finiteness(G, a, char_p)
    report = StructureReport(nilpotent=True, finite=fin, route=route, witness=witness)
    if fin:
        report.order = _order(G, a, char_p, config)
    if not char_p:
        if a.get("trivial"):
            report.completely_reducible, report.cr_series_dims = True, [G.degree, 0]
        else:
            us, flag = _unipotent_parts(G, a)
            report.completely_reducible = all(u.is_identity() for u in us)
            report.cr_series_dims = [s.dim for s in flag]
    try:
        report.primary, report.primary_is_extension = _primary(G, a, fin, char_p)
    except VerdictUnavailable as e:
        report.notes.append(str(e))
    if report.primary_is_extension:
        report.notes.append(
            "primary components of an infinite group are reported modulo the center "
            "of the diagonalizable part; this extends the finite-group notion"
        )
    if report.completely_reducible:
        # every unipotent part is 1, so an infinite group's diagonalizable
        # parts are its generators, and the primary decomposition's center
        # of them is the center of G
        report.center_gens = list(report.primary.central_part) if report.primary_is_extension else _center(G, a)
    return report


def _unipotent_parts(G: GroupSpec, a: dict):
    """(the generators' unipotent parts, the flag certifying the group they
    generate unipotent) of a nontrivial nilpotent group over a perfect
    field.  In characteristic 0 the verdict's split holds both.  Over GF(q)
    of characteristic p the verdict split nothing, and need not: a
    semisimple element of GL(n, q) has order prime to p and a unipotent one
    a power of p, so g = s u is g's split into its p'-part and its p-part,
    both powers of g, and u is the Sylow part for p in g's cover, or 1."""
    if "split" in a:
        return a["split"].gens_u, a["split"].cert_u.flag
    p = G.field.characteristic()
    parts, ident = a["sylow"].components.get(p, []), G.identity
    us = [next((parts[j].mat for q, j, _ in cover if q == p), ident) for cover in a["covers"]]
    return us, is_unipotent_group(us).flag


def _finiteness(G: GroupSpec, a: dict, char_p: bool):
    """(finite?, route marker, witness for the infinite case)."""
    if isinstance(G.field, FiniteField):
        return True, "finite-field", None
    if a.get("trivial"):
        return True, "trivial", None
    if char_p:
        # a repeated kernel matrix has the order of its first occurrence,
        # so the first infinite-order witness is the same
        for z in dedup_elts(a["kernel_gens"]):
            if finite_order(z.mat) is None:
                return False, "evaluation-kernel", Witness(
                    kind="infinite_order_element",
                    context="input",
                    items=(WItem("z", z.mat, z.word),),
                    note="an evaluation kernel generator has infinite order",
                )
        return True, "evaluation-kernel", None
    # G is nontrivial, so a trivial u-part leaves a nontrivial s-part, and
    # the verdict reduced it and kept the kernel
    split = a["split"]
    for i, u in enumerate(split.gens_u):
        if not u.is_identity():
            return False, "unipotent-part", Witness(
                kind="nontrivial_unipotent_part",
                context="input",
                items=(
                    WItem("g", G.gens[i], ((i, 1),)),
                    WItem("s", split.gens_s[i]),
                    WItem("u", u),
                ),
                note="a generator has a nontrivial unipotent part, which has infinite order in characteristic zero",
            )
    if a["kernel_gens"]:
        z = a["kernel_gens"][0]
        items = (WItem("z", z.mat, z.word),) + tuple(
            WItem(f"context_gen_{i}", g) for i, g in enumerate(split.gens_s)
        )
        return False, "congruence-kernel", Witness(
            kind="nontrivial_kernel_element",
            context="s_parts",
            items=items,
            note="a congruence kernel generator is nontrivial, and the kernel is torsion-free",
        )
    return True, "congruence-kernel", None


def _order(G: GroupSpec, a: dict, char_p: bool, config: Config) -> int:
    """Exact order of a finite nilpotent group."""
    if isinstance(G.field, FiniteField) or a.get("trivial"):
        # the product of the verified Sylow component orders, or 1
        return a["order"]
    if char_p:
        kernel = [z.mat for z in a["kernel_gens"]]
        if not kernel:
            return a["image_order"]
        enum = enumerate_group(kernel, config.closure_cap)
        if enum.overflowed:
            raise CapExceeded(config.closure_cap, "subgroup closure")
        return a["image_order"] * len(enum)
    # a finite group in characteristic 0 has a trivial congruence kernel
    return a["image_order"]


def _primary(G: GroupSpec, a: dict, fin: bool, char_p: bool):
    """(Sylow/primary system, extension?): the exact Sylow decomposition of
    a finite group, and for an infinite group the components of the
    diagonalizable part modulo its center (an extension of the finite
    notion, labeled as such)."""
    if a.get("trivial"):
        return SylowSystem({}, {}), False
    if isinstance(G.field, FiniteField):
        return a["sylow"], False
    if char_p:
        if not fin:
            raise VerdictUnavailable(
                "primary decomposition over char-p function fields is provided for finite groups only"
            )
        if a["kernel_gens"]:
            raise VerdictUnavailable("primary decomposition needs a faithful evaluation image here")
    if fin:
        # a faithful congruence or evaluation image: pull its Sylow system back by words
        image_sylow = a["image_sylow"]
        comps = {
            p: [Elt(G.evaluate(e.word), e.word) for e in elts]
            for p, elts in image_sylow.components.items()
        }
        return SylowSystem(comps, dict(image_sylow.orders)), False
    # infinite: G_s/Z(G_s) = H/Z(H), so the component for p is the image's
    # Q_p modulo its center, generated by the p-parts outside it
    split = a["split"]
    if all(s.is_identity() for s in split.gens_s):
        return SylowSystem({}, {}, central_part=()), True
    Gs = s_part_group(G, split)
    image_sylow = a["image_sylow"]
    comps, orders = {}, {}
    for p, enum in image_sylow.enums.items():
        central = enum.central
        if sum(central) < len(enum):
            orders[p] = len(enum) // sum(central)
            # part i is the vertex the identity's edge i reaches
            parts = zip(image_sylow.components[p], enum.table)
            comps[p] = [Elt(Gs.evaluate(e.word), e.word) for e, v in parts if not central[v]]
    return SylowSystem(comps, orders, central_part=tuple(_center(Gs, a))), True


def _center(G: GroupSpec, a: dict):
    """Generators of the center of the nilpotent group G, which for an
    infinite group must be its diagonalizable part: the Sylow
    certificate's center over GF(q), else the image certificate's pulled
    back over G by its words, with the distinct kernel generators (see
    the module docstring); the identity when trivial."""
    if a.get("trivial"):
        zs = []
    elif "sylow" in a:
        zs = a["sylow"].center()
    else:
        zs = [Elt(G.evaluate(z.word), z.word) for z in a["image_sylow"].center()]
        zs += dedup_elts(a["kernel_gens"])
    return zs or [Elt(G.identity, ())]
