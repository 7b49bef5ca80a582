"""Independent re-verification of witnesses embedded in reports.

Every check here is plain matrix arithmetic on the matrices recorded in
the report (plus minimal polynomial and gcd work where a claim is about
semisimplicity or element order), so a verdict can be audited without
rerunning the pipeline that produced it.
"""

from __future__ import annotations

from .groups import GroupSpec, evaluate_word
from .linalg import Matrix, inverse, minimal_polynomial, nullspace
from .nilpotency import class_bound
from .poly import gcd as poly_gcd
from .splitting import finite_order, is_unipotent_matrix
from .witness import Witness, deserialize_witness


def _context_gens(witness: Witness):
    gens = [it.mat for it in witness.items if it.label.startswith("context_gen_")]
    return gens or None


def _evaluate(word, gens):
    invs = [inverse(g) for g in gens]
    return evaluate_word(word, gens, invs)


def verify_witness(witness: Witness, group: GroupSpec | None = None):
    """Returns (ok, [(check, passed, detail)]) for the witness claims."""
    checks = []

    def add(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    ctx_gens = _context_gens(witness)
    if ctx_gens is None and group is not None and witness.context == "input":
        ctx_gens = list(group.gens)

    def word_consistent(item):
        if item.word is None or ctx_gens is None or item.mat is None:
            return True
        try:
            return _evaluate(item.word, ctx_gens) == item.mat
        except Exception:
            return False

    kind = witness.kind
    if kind == "non_commuting_pair":
        x, y = witness.find("x"), witness.find("y")
        add("both present", x is not None and y is not None)
        if x and y:
            add("x y != y x", not (x.mat * y.mat == y.mat * x.mat))
            add("x word consistent", word_consistent(x))
            add("y word consistent", word_consistent(y))
    elif kind == "commutator_chain":
        a_items = [it for it in witness.items if it.label.startswith("a_")]
        x_items = {it.label: it for it in witness.items if it.label.startswith("x_")}
        h_items = {it.label: it for it in witness.items if it.label.startswith("h_")}
        a_items.sort(key=lambda it: int(it.label.split("_")[1]))
        add("chain nonempty", len(a_items) >= 2)
        for i in range(len(a_items) - 1):
            a, a_next = a_items[i], a_items[i + 1]
            x = x_items.get(f"x_{i}")
            if x is None:
                add(f"x_{i} present", False)
                continue
            lhs = inverse(a.mat) * inverse(x.mat) * a.mat * x.mat
            add(f"a_{i + 1} = [a_{i}, x_{i}]", lhs == a_next.mat)
        for i, a in enumerate(a_items):
            h = h_items.get(f"h_{i}")
            if h is not None:
                add(f"a_{i} not central", not (a.mat * h.mat == h.mat * a.mat))
            else:
                add(f"a_{i} nontrivial", not a.mat.is_identity())
        if a_items:
            F = a_items[0].mat.field
            n = a_items[0].mat.n
            bound = class_bound(F, n)
            add(
                f"chain length exceeds class bound {bound}",
                len(a_items) - 1 > bound,
                f"{len(a_items) - 1} replacements",
            )
    elif kind == "not_unipotent_fixed_point_free":
        mats = [it.mat for it in witness.items if it.mat is not None and it.label.startswith("quotient_gen_")]
        add("generators present", bool(mats))
        if mats:
            F = mats[0].field
            n = mats[0].n
            add("space nontrivial", n >= 1)
            ident = Matrix.identity(F, n)
            add("all unipotent", all(is_unipotent_matrix(m) for m in mats))
            stacked = []
            for m in mats:
                stacked.extend(list(r) for r in (m - ident).rows)
            add("zero common fixed space", len(nullspace(F, stacked, n)) == 0)
    elif kind == "noncentral_kernel_element":
        z, g = witness.find("z"), witness.find("g")
        add("both present", z is not None and g is not None)
        if z and g:
            add("z g != g z", not (z.mat * g.mat == g.mat * z.mat))
            add("z word consistent", word_consistent(z))
    elif kind == "nontrivial_kernel_element":
        z = witness.find("z")
        add("present", z is not None)
        if z:
            add("z != 1", not z.mat.is_identity())
            add("z word consistent", word_consistent(z))
    elif kind == "nontrivial_unipotent_part":
        g, s, u = witness.find("g"), witness.find("s"), witness.find("u")
        add("all present", all(v is not None for v in (g, s, u)))
        if g and s and u:
            add("s u = g", s.mat * u.mat == g.mat)
            add("u s = g", u.mat * s.mat == g.mat)
            add("u unipotent", is_unipotent_matrix(u.mat))
            h = minimal_polynomial(s.mat)
            add("s semisimple", poly_gcd(h, h.derivative()).degree == 0)
            add("u != 1", not u.mat.is_identity())
            add("g word consistent", word_consistent(g))
    elif kind == "infinite_order_element":
        x = witness.find("x") or witness.find("z")
        add("present", x is not None)
        if x:
            add("infinite order", finite_order(x.mat) is None)
            add("word consistent", word_consistent(x))
    elif kind == "non_p_element":
        y = witness.find("y")
        add("present", y is not None)
        if y is not None:
            m = y.data.get("order")
            p = y.data.get("prime")
            add("order data present", m is not None and p is not None)
            if m and p:
                from .numth import factorint

                add("y^m = 1", (y.mat**m).is_identity())
                fac = factorint(m)
                add("order exact", all(not (y.mat ** (m // t)).is_identity() for t in fac))
                add("order not a p power", bool(set(fac) - {p}))
    elif kind == "non_semisimple_element":
        x = witness.find("x")
        add("present", x is not None)
        if x:
            h = minimal_polynomial(x.mat)
            add("minpoly not squarefree", poly_gcd(h, h.derivative()).degree > 0)
    elif kind == "non_unipotent_commutator":
        z, g, c = witness.find("z"), witness.find("g"), witness.find("c")
        add("all present", all(v is not None for v in (z, g, c)))
        if z and g and c:
            add("c = [z, g]", inverse(z.mat) * inverse(g.mat) * z.mat * g.mat == c.mat)
            add("c not unipotent", not is_unipotent_matrix(c.mat))
            add("z word consistent", word_consistent(z))
    else:
        add(f"known witness kind ({kind})", False)
    ok = all(passed for _, passed, _ in checks)
    return ok, checks


def verify_report(report: dict, group: GroupSpec | None = None):
    """Verify the witness of a serialized report; reports without a witness
    verify trivially."""
    wdata = report.get("witness")
    if not wdata:
        return True, [("no witness to verify", True, "")]
    witness = deserialize_witness(wdata)
    return verify_witness(witness, group)
