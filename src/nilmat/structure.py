"""Structural report for a finitely generated matrix group.

`analyze` decides nilpotency once and answers every structural question
the paper asks of a nilpotent group (finiteness, order, complete
reducibility, the primary/Sylow decomposition and the center) from that
one verdict's artifacts: the Jordan split, the congruence image with its
Sylow system, and the kernel's normal generators.  No step reruns the
verdict or recomputes what it carries.  Over GF(q) nothing is split at
all: a generator's unipotent part is its Sylow part for the
characteristic, which the verdict already holds.

The normal generators come from one pass over each Sylow subgroup's
finished Cayley table, lifted to the source after the image was found
nilpotent (nilpotency._kernel_gens); they are distinct matrices, and none
is the identity.  A nilpotent verdict has found each of them central,
and a central normal generator is its own normal closure, so together
they generate the kernel as a subgroup: the kernel is trivial exactly
when there are none, and as it is torsion-free (congruence), G_s is
finite exactly then.  In characteristic 0 a nontrivial unipotent part has
infinite order.  Over GF(q)(X) every unipotent part u has order p^e, the
least p-power with (u - 1)^(p^e) = 0, so G is finite exactly when the
kernel is trivial; one Sylow test of G itself then gives its order and
Sylow system, given each generator's order as that of its s-part's image
times p^e (s and u commute with coprime orders, and a finite G_s maps
injectively), so no matrix over GF(q)(X) is powered to find an order.

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
H is nonabelian.  No enumeration runs beyond the verdict's, except the
Sylow test of a finite group over GF(q)(X).

Complete reducibility is left unanswered over GF(q)(X): the split lives
over GF(q)(Y), X = Y^(p^k), and decides it there, not over GF(q)(X)."""

from __future__ import annotations

from .config import DEFAULT, Config
from .fields import FiniteField, FunctionField
from .groups import Elt, GroupSpec
from .nilpotency import SylowSystem, is_finite_nilpotent, is_nilpotent
from .record import Record
from .splitting import finite_order, unipotent_flag
from .witness import WItem, Witness


class StructureReport(Record):
    __slots__ = (
        "nilpotent", "finite", "order", "completely_reducible", "cr_series_dims", "primary",
        "primary_is_extension", "center_gens", "witness", "route", "notes",
        "root_power",   # p^k when the split was taken over GF(q)(Y), X = Y^(p^k), k > 0; else 1
    )
    _defaults = {
        "finite": None, "order": None, "completely_reducible": None, "cr_series_dims": None, "primary": None,
        "primary_is_extension": False, "center_gens": None, "witness": None, "route": "", "notes": list,
        "root_power": 1,
    }


def analyze(G: GroupSpec, config: Config = DEFAULT) -> StructureReport:
    """Full structural report: nilpotency first, then every query that
    applies to the input, each answered from the verdict's artifacts."""
    verdict = is_nilpotent(G, config)
    a = verdict.artifacts
    root = a.get("root_power", 1)
    if not verdict.nilpotent:
        return StructureReport(nilpotent=False, witness=verdict.witness, root_power=root)
    F = G.field
    imperfect = isinstance(F, FunctionField) and F.characteristic() > 0
    fin, route, witness = _finiteness(G, a)
    report = StructureReport(nilpotent=True, finite=fin, route=route, witness=witness, root_power=root)
    if fin and imperfect and not a.get("trivial"):
        # the Sylow test of G itself (module docstring)
        a = dict(a, **is_finite_nilpotent(G, config, _generator_orders(a, F.characteristic())).artifacts)
    if fin:
        report.order = a["order"] if "order" in a else a["image_order"]
    if not imperfect:
        if a.get("trivial"):
            report.completely_reducible, report.cr_series_dims = True, [G.degree, 0]
        else:
            us, flag = _unipotent_parts(G, a)
            report.completely_reducible = all(u.is_identity() for u in us)
            report.cr_series_dims = [s.dim for s in flag]
    report.primary, report.primary_is_extension = _primary(G, a, fin)
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
    both powers of g, and u is the Sylow part for p in g's cover, or 1.
    Those parts are unipotent, since (x - 1)^(p^e) = x^(p^e) - 1 = 0 for
    a p-element x, so the flag is built without testing them."""
    if "split" in a:
        return a["split"].gens_u, a["split"].cert_u.flag
    p = G.field.characteristic()
    parts, ident = a["sylow"].components.get(p, []), G.identity
    us = [next((parts[j].mat for q, j, _ in cover if q == p), ident) for cover in a["covers"]]
    return us, unipotent_flag(us).flag


def _generator_orders(a: dict, p: int):
    """The generators' orders in a finite nilpotent group over GF(q)(X) of
    characteristic p: that of the image of the diagonalizable part (1 when
    it was not reduced, being 1) times the least p^e with u^(p^e) = 1,
    which is (u - 1)^(p^e) = 0, for the unipotent part u."""
    split = a["split"]
    images = a.get("image_gens") or [None] * len(split.gens_u)
    out = []
    for h, u in zip(images, split.gens_u):
        m = 1 if h is None else finite_order(h)
        while not u.is_identity():
            u, m = u**p, m * p
        out.append(m)
    return out


def _finiteness(G: GroupSpec, a: dict):
    """(finite?, route marker, witness for the infinite case)."""
    if isinstance(G.field, FiniteField):
        return True, "finite-field", None
    if a.get("trivial"):
        return True, "trivial", None
    split = a["split"]
    char0 = G.field.characteristic() == 0
    if char0:
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
    if a.get("kernel_gens"):
        z = a["kernel_gens"][0]
        items = (WItem("z", z.mat, z.word),) + tuple(
            WItem(f"context_gen_{i}", g) for i, g in enumerate(split.gens_s)
        )
        if char0:
            kind, note = "nontrivial_kernel_element", "a congruence kernel generator is nontrivial, and the kernel is torsion-free"
        else:
            kind, note = "infinite_order_element", "a congruence kernel generator is nontrivial, so of infinite order"
        return False, "congruence-kernel", Witness(kind=kind, context="s_parts", items=items, note=note)
    return True, "congruence-kernel", None


def _primary(G: GroupSpec, a: dict, fin: bool):
    """(Sylow/primary system, extension?): the exact Sylow decomposition of
    a finite group, and for an infinite group the components of the
    diagonalizable part modulo its center (an extension of the finite
    notion, labeled as such)."""
    if a.get("trivial"):
        return SylowSystem({}, {}), False
    if "sylow" in a:
        # over GF(q), or a finite group over GF(q)(X)
        return a["sylow"], False
    if fin:
        # a faithful congruence image: pull its Sylow system back by words
        image_sylow = a["image_sylow"]
        comps = {
            p: [Elt(G.evaluate(e.word), e.word) for e in elts]
            for p, elts in image_sylow.components.items()
        }
        return SylowSystem(comps, dict(image_sylow.orders)), False
    # infinite: G_s/Z(G_s) = H/Z(H), so the component for p is the image's
    # Q_p modulo its center, generated by the p-parts outside it
    if all(s.is_identity() for s in a["split"].gens_s):
        return SylowSystem({}, {}, central_part=()), True
    Gs = a["s_parts"]
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
    back over G by its words, with the kernel generators (see the module
    docstring); the identity when trivial."""
    if a.get("trivial"):
        zs = []
    elif "sylow" in a:
        zs = a["sylow"].center()
    else:
        zs = [Elt(G.evaluate(z.word), z.word) for z in a["image_sylow"].center()]
        zs += a["kernel_gens"]
    return zs or [Elt(G.identity, ())]
