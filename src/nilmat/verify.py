"""Independent re-verification of witnesses embedded in reports.

Every check here is plain matrix arithmetic on the matrices recorded in
the report (plus characteristic polynomial work where a claim is about
semisimplicity or element order), so a verdict can be audited without
rerunning the pipeline that produced it.  Element orders are replayed
where the pipeline claims them: a p-element over GF(q) only, and an
element of infinite order (a nontrivial congruence kernel generator) over
a char-p function field only, where its characteristic polynomial decides
the claim; anywhere else such a claim is not confirmed.  Over GF(q)(X)
the matrices of a split taken over GF(q)(Y), X = Y^(p^k), are recorded
with entries in Y (the report's split_root_power is p^k), and every check
on them is the same field arithmetic.
"""

from __future__ import annotations

from .errors import ParseError
from .fields import FiniteField, FunctionField
from .groups import GroupSpec, evaluate_word
from .linalg import Matrix, inverse, nullspace, semisimple_minpoly
from .numth import factorint, is_prime
from .splitting import finite_order, has_infinite_order, is_unipotent_matrix
from .witness import Witness, deserialize_witness, deserialize_word

# the generator sets that witness words index, as the pipeline emits them
CONTEXTS = ("input", "jordan_parts", "u_parts", "s_parts", "image")


def _context_gens(witness: Witness):
    gens = [it.mat for it in witness.items if it.label.startswith("context_gen_")]
    return gens or None


def _replays(word, gens, mat) -> bool:
    """Whether word over gens evaluates to mat; a malformed word does not."""
    try:
        return evaluate_word(deserialize_word(word), gens, [inverse(g) for g in gens]) == mat
    except Exception:
        return False


def _is_prime(v) -> bool:
    return isinstance(v, int) and is_prime(v)


def _char_p_function_field(F) -> bool:
    return isinstance(F, FunctionField) and F.characteristic() > 0


def _semisimplicity_decided(mat: Matrix) -> bool:
    """Whether semisimple_minpoly decides mat's semisimplicity: over a
    char-p function field the p-th roots that Yun's loop takes of the
    coefficients need not exist, so the claim fails closed."""
    return not _char_p_function_field(mat.field)


def _is_p_element(mat: Matrix, p: int) -> bool:
    """mat lies over GF(q) and has order a power of the prime p.  The
    pipeline labels items with primes only over GF(q), so a claim over
    any other field fails closed."""
    return isinstance(mat.field, FiniteField) and not set(factorint(finite_order(mat))) - {p}


def _malformed(witness: Witness):
    """Why a deserialized witness is not one the checks below can read, or
    None: arithmetic on ragged or mismatched matrices proves nothing."""
    if not all(isinstance(it.label, str) and isinstance(it.data, dict) for it in witness.items):
        return "item labels must be strings and item data objects"
    mats = [it.mat for it in witness.items if it.mat is not None]
    if any(m.field != mats[0].field or m.n != mats[0].n or any(len(r) != m.n for r in m.rows) for m in mats):
        return "item matrices must be square, over one field and of one size"
    return None


def verify_witness(witness: Witness, group: GroupSpec | None = None):
    """Returns (ok, [(check, passed, detail)]) for the witness claims."""
    checks = []

    def add(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    if witness.context not in CONTEXTS:
        # a context the pipeline never emits, such as "adjoint", ties no
        # item to the group
        add(f"known context ({witness.context})", False)
    ctx_gens = _context_gens(witness)
    if ctx_gens is None and group is not None and witness.context == "input":
        ctx_gens = list(group.gens)

    def word_consistent(item):
        if item.word is None or item.mat is None:
            return True
        if ctx_gens is None:
            # an input word indexes the group's generators: with neither
            # the group nor context generators there is nothing to replay it
            # over, so the claim fails closed
            return witness.context != "input"
        return _replays(item.word, ctx_gens, item.mat)

    kind = witness.kind
    if kind == "non_commuting_pair":
        x, y = witness.find("x"), witness.find("y")
        add("both present", x is not None and y is not None)
        if x and y:
            add("x y != y x", not (x.mat * y.mat == y.mat * x.mat))
            add("x word consistent", word_consistent(x))
            add("y word consistent", word_consistent(y))
            if witness.context != "jordan_parts":
                # elements of coprime orders commute in a nilpotent group
                p, q = x.data.get("prime"), y.data.get("prime")
                primes = _is_prime(p) and _is_prime(q)
                add("distinct primes", primes and p != q, f"{p}, {q}")
                if primes:
                    add(f"x is a {p}-element", _is_p_element(x.mat, p))
                    add(f"y is a {q}-element", _is_p_element(y.mat, q))
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
            add("s semisimple", _semisimplicity_decided(s.mat) and semisimple_minpoly(s.mat) is not None)
            add("u != 1", not u.mat.is_identity())
            add("g word consistent", word_consistent(g))
    elif kind == "infinite_order_element":
        x = witness.find("x") or witness.find("z")
        add("present", x is not None)
        if x:
            # the pipeline makes this claim over char-p function fields
            # only; elsewhere it fails closed
            add("infinite order", _char_p_function_field(x.mat.field) and has_infinite_order(x.mat))
            add("word consistent", word_consistent(x))
    elif kind == "non_p_element":
        # the p-elements of a nilpotent group form a subgroup, so a product
        # of p-elements whose order is not a power of p refutes nilpotency
        y = witness.find("y")
        k = sum(it.label.startswith("part_") for it in witness.items)
        parts = [witness.find(f"part_{i}") for i in range(k)]
        present = y is not None and bool(parts) and None not in parts
        add("y and parts part_0 .. part_(k-1) present", present)
        if present:
            m, p = y.data.get("order"), y.data.get("prime")
            data_ok = isinstance(m, int) and m > 0 and _is_prime(p)
            add("order data present", data_ok)
            if data_ok:
                for it in parts:
                    add(f"{it.label} is a {p}-element", it.data.get("prime") == p and _is_p_element(it.mat, p))
                    add(f"{it.label} word consistent", word_consistent(it))
                add(
                    "y is the parts_word product of the parts",
                    _replays(y.data.get("parts_word"), [it.mat for it in parts], y.mat),
                )
                add("y word consistent", word_consistent(y))
                add("y^m = 1", (y.mat**m).is_identity())
                fac = factorint(m)
                add("order exact", all(not (y.mat ** (m // t)).is_identity() for t in fac))
                add("order not a p power", bool(set(fac) - {p}))
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
    try:
        witness = deserialize_witness(wdata)
    except (AttributeError, KeyError, TypeError, ValueError, ParseError) as e:
        return False, [("well-formed witness", False, f"{type(e).__name__}: {e}")]
    problem = _malformed(witness)
    if problem is not None:
        return False, [("well-formed witness", False, problem)]
    return verify_witness(witness, group)
