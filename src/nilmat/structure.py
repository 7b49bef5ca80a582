"""Structural report for a finitely generated matrix group.

`analyze` decides nilpotency once and answers every structural question
the paper asks of a nilpotent group (finiteness, order, complete
reducibility, the primary/Sylow decomposition and the center) from that
one verdict's artifacts: the Jordan split, the congruence or evaluation
image with its Sylow system, and the image's kernel.  No step reruns the
verdict or recomputes what it carries.

A finite group's center is read off the Cayley tables that its Sylow
certificate enumerated (Z(G) is the product of the Sylow subgroups'
centers), with no matrix products; over an infinite field the tables are
the congruence image's, which is faithful for a finite group.  Only an
infinite completely reducible group takes its center from the kernel of
the adjoint representation."""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

from .config import DEFAULT, Config
from .congruence import congruence_kernel
from .errors import CapExceeded, VerdictUnavailable
from .fields import FiniteField, FunctionField
from .groups import Elt, GroupSpec, dedup_elts, enumerate_group
from .nilpotency import AdjointData, SylowSystem, adjoint_sylow, is_nilpotent
from .splitting import finite_order, reduction_split, s_part_group
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
        # over GF(q) and for the trivial group the verdict splits nothing
        split = a.get("split") or reduction_split(G)
        report.completely_reducible = all(u.is_identity() for u in split.gens_u)
        report.cr_series_dims = [s.dim for s in split.cert_u.flag]
    try:
        report.primary, report.primary_is_extension = _primary(G, a, fin, char_p, config)
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
        report.center_gens = _finite_center(G, a) if fin else list(report.primary.central_part)
    return report


def _finiteness(G: GroupSpec, a: dict, char_p: bool):
    """(finite?, route marker, witness for the infinite case)."""
    if isinstance(G.field, FiniteField):
        return True, "finite-field", None
    if a.get("trivial"):
        return True, "trivial", None
    if char_p:
        # a repeated kernel matrix has the order of its first occurrence,
        # and the identity has order 1, so the first infinite-order
        # witness is the same
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
    for z in a["kernel_gens"]:
        if not z.is_identity():
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
        kernel = [z.mat for z in a["kernel_gens"] if not z.is_identity()]
        if not kernel:
            return a["image_order"]
        enum = enumerate_group(kernel, config.closure_cap)
        if enum.overflowed:
            raise CapExceeded(config.closure_cap, "subgroup closure")
        return a["image_order"] * len(enum)
    # a finite group in characteristic 0 has a trivial congruence kernel
    return a["image_order"]


def _primary(G: GroupSpec, a: dict, fin: bool, char_p: bool, config: Config):
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
        if any(not z.is_identity() for z in a["kernel_gens"]):
            raise VerdictUnavailable("primary decomposition needs a faithful evaluation image here")
    if fin:
        # a faithful congruence or evaluation image: pull its Sylow system back by words
        image_sylow = a["image_sylow"]
        comps = {
            p: [Elt(G.evaluate(e.word), e.word) for e in elts]
            for p, elts in image_sylow.components.items()
        }
        return SylowSystem(comps, dict(image_sylow.orders)), False
    # infinite: decompose the adjoint image of the diagonalizable part
    split = a["split"]
    if all(s.is_identity() for s in split.gens_s):
        return SylowSystem({}, {}, central_part=()), True
    Gs = s_part_group(G, split)
    adj_sylow, ad = adjoint_sylow(Gs, config)
    comps = {p: [Elt(Gs.evaluate(e.word), e.word) for e in elts] for p, elts in adj_sylow.components.items()}
    central = _center_generators(Gs, config, ad)
    return SylowSystem(comps, dict(adj_sylow.orders), central_part=tuple(central)), True


def _finite_center(G: GroupSpec, a: dict):
    """Generators of the center of a finite nilpotent group, read off the
    Cayley tables of its verdict's Sylow certificate (SylowSystem.center).
    Over an infinite field the certificate is the image's; the image map
    is injective when every kernel generator is trivial, so each word is
    evaluated over G."""
    if a.get("trivial"):
        zs = []
    elif "sylow" in a:
        zs = a["sylow"].center()
    else:
        zs = [Elt(G.evaluate(z.word), z.word) for z in a["image_sylow"].center()]
    return zs or [Elt(G.identity, ())]


def _center_generators(G: GroupSpec, config: Config, ad: AdjointData):
    """Generators of the center of a nontrivial completely reducible
    nilpotent group with adjoint representation ad: the kernel of the
    adjoint representation, generated by the Schreier generators of the
    adjoint image lifted to the group, each distinct nontrivial one once."""
    _, kernel = congruence_kernel(G, ad.adj_gens, config.cayley_cap)
    return list(dedup_elts(kernel)) or [Elt(G.identity, ())]
