"""Structural queries for groups already known nilpotent: finiteness,
order, complete reducibility, primary/Sylow decomposition, center.

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
from .errors import CapExceeded, ImperfectField, VerdictUnavailable
from .fields import FiniteField, FunctionField
from .groups import Elt, GroupSpec, dedup_elts, enumerate_group
from .nilpotency import (
    AdjointData,
    SylowSystem,
    Verdict,
    adjoint_rep,
    is_finite_nilpotent,
    is_nilpotent,
    require_semisimple_gens,
)
from .splitting import cr_series, finite_order, reduction_split, s_part_group
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


def _require_nilpotent(G, config, verdict):
    if verdict is None:
        verdict = is_nilpotent(G, config)
    if not verdict.nilpotent:
        raise ValueError("structural queries expect a nilpotent group")
    return verdict


def is_finite(G: GroupSpec, config: Config = DEFAULT, verdict: Verdict | None = None):
    """(finite?, route marker, witness for the infinite case)."""
    verdict = _require_nilpotent(G, config, verdict)
    F = G.field
    if isinstance(F, FiniteField):
        return True, "finite-field", None, verdict
    if verdict.artifacts.get("trivial"):
        return True, "trivial", None, verdict
    if isinstance(F, FunctionField) and F.characteristic() > 0:
        return _is_finite_ff_char_p(G, config, verdict)
    split = verdict.artifacts.get("split")
    for i, u in enumerate(split.gens_u):
        if not u.is_identity():
            return (
                False,
                "unipotent-part",
                Witness(
                    kind="nontrivial_unipotent_part",
                    context="input",
                    items=(
                        WItem("g", G.gens[i], ((i, 1),)),
                        WItem("s", split.gens_s[i]),
                        WItem("u", u),
                    ),
                    note="a generator has a nontrivial unipotent part, which has infinite order in characteristic zero",
                ),
                verdict,
            )
    kernel = verdict.artifacts.get("kernel_gens", [])
    for z in kernel:
        if not z.is_identity():
            items = (WItem("z", z.mat, z.word),) + tuple(
                WItem(f"context_gen_{i}", g) for i, g in enumerate(split.gens_s)
            )
            return (
                False,
                "congruence-kernel",
                Witness(
                    kind="nontrivial_kernel_element",
                    context="s_parts",
                    items=items,
                    note="a congruence kernel generator is nontrivial, and the kernel is torsion-free",
                ),
                verdict,
            )
    return True, "congruence-kernel", None, verdict


def _is_finite_ff_char_p(G, config, verdict):
    # a repeated kernel matrix has the order of its first occurrence, and
    # the identity has order 1, so the first infinite-order witness is the same
    for z in dedup_elts(verdict.artifacts.get("kernel_gens", [])):
        m = finite_order(z.mat, config)
        if m is None:
            return (
                False,
                "evaluation-kernel",
                Witness(
                    kind="infinite_order_element",
                    context="input",
                    items=(WItem("z", z.mat, z.word),),
                    note="an evaluation kernel generator has infinite order",
                ),
                verdict,
            )
    return True, "evaluation-kernel", None, verdict


def order(G: GroupSpec, config: Config = DEFAULT, verdict: Verdict | None = None, finite: bool | None = None) -> int:
    """Exact order of a finite nilpotent group; `finite` is is_finite's
    answer when the caller has it."""
    verdict = _require_nilpotent(G, config, verdict)
    F = G.field
    if verdict.artifacts.get("trivial"):
        return 1
    if isinstance(F, FiniteField):
        # the product of the verified Sylow component orders
        return verdict.artifacts["order"]
    if not (is_finite(G, config, verdict)[0] if finite is None else finite):
        raise ValueError("order is defined for finite groups only")
    if isinstance(F, FunctionField) and F.characteristic() > 0:
        image_order = verdict.artifacts["image_order"]
        kernel = [z.mat for z in verdict.artifacts.get("kernel_gens", []) if not z.is_identity()]
        if not kernel:
            return image_order
        enum = enumerate_group(kernel, config.closure_cap)
        if enum.overflowed:
            raise CapExceeded(config.closure_cap, "subgroup closure")
        return image_order * len(enum)
    # a purely unipotent finite group in char 0 is trivial and has no image
    return verdict.artifacts.get("image_order", 1)


def is_completely_reducible(G: GroupSpec, config: Config = DEFAULT, verdict: Verdict | None = None):
    """(completely reducible?, module series dimensions); the series factors
    are completely reducible in either case."""
    F = G.field
    if isinstance(F, FunctionField) and F.characteristic() > 0:
        raise ImperfectField("complete reducibility testing needs a perfect field")
    verdict = _require_nilpotent(G, config, verdict)
    split = verdict.artifacts.get("split") or reduction_split(G, config)
    return all(u.is_identity() for u in split.gens_u), cr_series(G, split, config)


def primary_decomposition(
    G: GroupSpec, config: Config = DEFAULT, verdict: Verdict | None = None, finite: bool | None = None
):
    """Sylow/primary system: exact Sylow decomposition for finite groups,
    and for infinite groups the components of the diagonalizable part
    modulo its center (an extension of the finite notion, labeled as such).
    `finite` is is_finite's answer when the caller has it."""
    verdict = _require_nilpotent(G, config, verdict)
    F = G.field
    if verdict.artifacts.get("trivial"):
        return SylowSystem({}, {}), False, verdict
    if isinstance(F, FiniteField):
        v = is_finite_nilpotent(G, config) if "sylow" not in verdict.artifacts else verdict
        return v.artifacts["sylow"], False, verdict
    fin = is_finite(G, config, verdict)[0] if finite is None else finite
    if isinstance(F, FunctionField) and F.characteristic() > 0:
        if not fin:
            raise VerdictUnavailable(
                "primary decomposition over char-p function fields is provided for finite groups only"
            )
        if any(not z.is_identity() for z in verdict.artifacts.get("kernel_gens", [])):
            raise VerdictUnavailable(
                "primary decomposition needs a faithful evaluation image here"
            )
    if fin:
        # a faithful congruence or evaluation image: pull its Sylow system back by words
        image_sylow = verdict.artifacts.get("image_sylow")
        if image_sylow is None:
            return SylowSystem({}, {}), False, verdict
        comps = {
            p: [Elt(G.evaluate(e.word), e.word) for e in elts]
            for p, elts in image_sylow.components.items()
        }
        return SylowSystem(comps, dict(image_sylow.orders)), False, verdict
    # infinite: decompose the adjoint image of the diagonalizable part
    split = verdict.artifacts.get("split")
    if all(s.is_identity() for s in split.gens_s):
        return SylowSystem({}, {}, central_part=()), True, verdict
    Gs = s_part_group(G, split)
    from .nilpotency import is_nilpotent_adjoint

    v_adj = is_nilpotent_adjoint(Gs, config, split.minpolys_s)
    if not v_adj.nilpotent:
        raise ValueError("adjoint decomposition failed on a nilpotent input")
    adj_sylow = v_adj.artifacts.get("sylow")
    comps = {}
    if adj_sylow is not None:
        for p, elts in adj_sylow.components.items():
            comps[p] = [Elt(Gs.evaluate(e.word), e.word) for e in elts]
    central = _center_generators(Gs, config, v_adj.artifacts.get("adjoint"))
    sylow = SylowSystem(comps, dict(adj_sylow.orders) if adj_sylow else {}, central_part=tuple(central))
    return sylow, True, verdict


def center_generators(G: GroupSpec, config: Config = DEFAULT):
    """Generators of the center of a completely reducible nilpotent group.

    A finite group's center is read off its Sylow certificate's Cayley
    tables (_finite_center); otherwise it is the kernel of the adjoint
    representation (_center_generators).  A group that is not nilpotent
    raises ValueError, like every structural query.  In characteristic
    zero a generator that is not diagonalizable raises NotSemisimple before
    anything is enumerated: the group is then not completely reducible, and
    its adjoint image may be infinite."""
    if G.field.characteristic() == 0:
        require_semisimple_gens(G)
    fin, _, _, verdict = is_finite(G, config)
    # a finite group over a char-p function field may have a nontrivial
    # evaluation kernel, and then its image's tables do not give its center
    if fin and all(z.is_identity() for z in verdict.artifacts.get("kernel_gens", [])):
        return _finite_center(G, verdict)
    return _center_generators(G, config)


def _finite_center(G: GroupSpec, verdict: Verdict):
    """Generators of the center of a finite nilpotent group, read off the
    Cayley tables of its verdict's Sylow certificate (SylowSystem.center).
    Over an infinite field the certificate is the image's; the image map
    is injective when every kernel generator is trivial, so each word is
    evaluated over G."""
    a = verdict.artifacts
    if a.get("trivial"):
        zs = []
    elif "sylow" in a:
        zs = a["sylow"].center()
    else:
        zs = [Elt(G.evaluate(z.word), z.word) for z in a["image_sylow"].center()]
    return zs or [Elt(G.identity, ())]


def _center_generators(G: GroupSpec, config: Config, ad: AdjointData | None = None):
    """Generators of the center of a completely reducible nilpotent group:
    the kernel of the adjoint representation, generated by the Schreier
    generators of the adjoint image lifted to the group, each distinct
    nontrivial one once.  ad is the adjoint representation, when the caller
    has already built it."""
    if not G.gens or G.is_trivial():
        return [Elt(G.identity, ())]
    if ad is None:
        ad = adjoint_rep(G)
    _, kernel = congruence_kernel(G, ad.adj_gens, config.cayley_cap)
    return list(dedup_elts(kernel)) or [Elt(G.identity, ())]


def analyze(G: GroupSpec, config: Config = DEFAULT) -> StructureReport:
    """Full structural report: nilpotency first, then every query that
    applies to the input."""
    verdict = is_nilpotent(G, config)
    if not verdict.nilpotent:
        return StructureReport(nilpotent=False, witness=verdict.witness)
    report = StructureReport(nilpotent=True)
    fin, route, witness, verdict = is_finite(G, config, verdict)
    report.finite = fin
    report.route = route
    if not fin:
        report.witness = witness
    if fin:
        report.order = order(G, config, verdict, finite=True)
    F = G.field
    if not (isinstance(F, FunctionField) and F.characteristic() > 0):
        cr, flag = is_completely_reducible(G, config, verdict)
        report.completely_reducible = cr
        report.cr_series_dims = [s.dim for s in flag]
    try:
        sylow, extension, verdict = primary_decomposition(G, config, verdict, finite=fin)
        report.primary = sylow
        report.primary_is_extension = extension
        if extension:
            report.notes.append(
                "primary components of an infinite group are reported modulo the center "
                "of the diagonalizable part; this extends the finite-group notion"
            )
    except VerdictUnavailable as e:
        report.notes.append(str(e))
    if report.completely_reducible:
        # every unipotent part is 1, so an infinite group's diagonalizable
        # parts are its generators, and the primary decomposition's center
        # of them is the center of G
        report.center_gens = _finite_center(G, verdict) if fin else list(report.primary.central_part)
    return report
