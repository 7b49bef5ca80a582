"""Congruence homomorphisms onto matrix groups over finite fields.

A validated modulus reduces GL(n, D_pi) onto GL(n, GF(p^l)) with a kernel
that is torsion-free in characteristic zero, and on a group of semisimple
elements over GF(q)(X) too, so a finite group maps injectively.  The
kernel's normal generators come from the Cayley tables of a nilpotent
image's Sylow subgroups, each enumerated once by the image's Sylow test
and walked once more lifted to the source group
(nilpotency._kernel_gens), never from the whole image; kernel_is_central
tests them.  The checks bundled in CongruenceData are exactly the ones
that buy that guarantee: p odd, coprime to the denominators, unramified
for number fields, and keeping the generators' minimal polynomials
squarefree so the image stays semisimple.  Over Q(a) one factorization of
a's minimal polynomial f mod p gives both the ramification check (p does
not divide disc f exactly when f mod p has no repeated factor) and a's
image, a root of f in GF(p^l).

Why the kernel is torsion-free: let g = 1 + pi^k A (k >= 1, A not 0 mod
pi) have prime order l, and let e = v(p) for the valuation v of pi.  In
g^l - 1 = l pi^k A + (l choose 2) pi^(2k) A^2 + ... + pi^(lk) A^l the
first term has valuation v(l) + k.  For l != p that is k, below every
other term.  For l = p the middle terms lie at e + 2k or deeper and the
last at pk or deeper, so the first survives when k(p - 1) > e: always once
e < p - 1 (Minkowski), so at every unramified (e = 1) odd p.  So g^l != 1.
Over Q(X) a torsion g in the kernel has g(a) = 1 by this, and the kernel
of X -> a is torsion-free as every l is a unit there.  Over GF(q)(X) the
same lowest term, at the place of the evaluation point, excludes every
l != p, and g^p = 1 makes (g - 1)^p = 0, so g is unipotent.  The pipeline
reduces only the diagonalizable parts s_i; when G_s = <s_i> is nilpotent
its semisimple elements form a subgroup (Suprunenko, Matrix Groups, 1976),
which holds the s_i and so all of G_s, and a semisimple unipotent g is 1.
So the kernel of a nilpotent G_s is torsion-free in every characteristic.
The degree n plays no part, and no claim of the package needs p > n: the
verdict and the infinite primary decomposition use only this
torsion-freeness (the latter also exp(H)), and the image's complete
reducibility is never used.

Two rules pick the map.  Over Q and number fields the prime is the least
odd one up to PRIME_CAP that passes every check, from one trial
(_try_prime) in which Q is the degree-1 case.  Over a function field the
evaluation point is the first admissible one in a fixed candidate order,
for either base: no denominator factor vanishes there, and over Q(X) the
evaluated group has a valid prime.  Over a finite base the prime is the
characteristic, and checks.image_semisimple records whether that point's
image is semisimple; no point is passed over for it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import count, islice, takewhile

from .config import DEFAULT, Config
from .errors import DenominatorDivisible, NoPrimeInRange, UnsupportedField
from .fields import (
    QQ,
    FiniteField,
    FunctionField,
    NumberField,
    RationalField,
    field_from_json,
    pt_eval,
    reduce_mod,
)
from .groups import GroupSpec
from .linalg import Matrix, semisimple_minpoly
from .numth import factorint, is_prime, odd_primes
from .poly import Poly, factor, gcd as poly_gcd
from .record import Frozen

PRIME_CAP = 2**20    # largest reduction prime tried
EVAL_CAP = 200       # evaluation points tried for function fields


class CongruenceData(Frozen):
    __slots__ = (
        "source",           # Field
        "pi",               # denominator data (primes, or irreducible polys)
        "p",                # reduction prime (char of the target)
        "target",           # finite Field
        "alpha_image",      # root of the defining polynomial in the target
        "eval_point",       # function-field substitution point
        "pi_after_eval",    # second-stage denominators for P(X), P = Q
        "eval_target",      # base field hosting the evaluation point
        "checks",
    )
    _defaults = {"alpha_image": None, "eval_point": None, "pi_after_eval": (), "eval_target": None, "checks": dict}

    def to_json(self):
        out = {
            "source": self.source.to_json(),
            "p": self.p,
            "target": self.target.to_json(),
            "checks": dict(self.checks),
        }
        if isinstance(self.source, FunctionField):
            out["pi"] = [[self.source.base.format(c) for c in f] for f in self.pi]
            out["eval_point"] = self.eval_target.format(self.eval_point)
            out["eval_target"] = self.eval_target.to_json()
            out["pi_after_eval"] = [str(q) for q in self.pi_after_eval]
        else:
            out["pi"] = [str(q) for q in self.pi]
        if self.alpha_image is not None:
            out["alpha_image"] = self.target.format(self.alpha_image)
        return out


def _denominator_primes(field, mats):
    """Primes dividing the denominator of some entry over Q, or of some
    power-basis coefficient of an entry over a number field."""
    entries = [c for m in mats for row in m.rows for c in row]
    if isinstance(field, NumberField):
        entries = [x for c in entries for x in c]
    dens = {c.denominator for c in entries}
    return tuple(sorted({q for z in dens if z > 1 for q in factorint(z)}))


def _functionfield_denominator_factors(field, mats):
    """Monic irreducible factors of all entry denominators."""
    base = field.base
    seen = set()
    out = []
    for m in mats:
        for row in m.rows:
            for c in row:
                den = c[1]
                if len(den) <= 1:
                    continue
                _, facs = factor(Poly.make(base, den))
                for g, _ in facs:
                    key = g.coeffs
                    if key not in seen:
                        seen.add(key)
                        out.append(g.coeffs)
    out.sort(key=lambda cs: (len(cs), cs))
    return tuple(out)


def denominator_set(G: GroupSpec):
    """Denominator data of the generators and their inverses."""
    mats = list(G.gens) + list(G.invs)
    F = G.field
    if isinstance(F, (RationalField, NumberField)):
        return _denominator_primes(F, mats)
    if isinstance(F, FunctionField):
        return _functionfield_denominator_factors(F, mats)
    raise UnsupportedField("denominator analysis applies to infinite coefficient fields")


def _minpoly_stays_squarefree(h: Poly, reduce_coeff, target):
    """Whether the coefficient-wise reduction of the squarefree h stays
    squarefree (_select_prime has refused a generator that is not
    semisimple before any prime is tried)."""
    try:
        hbar = Poly.make(target, [reduce_coeff(c) for c in h.coeffs])
    except DenominatorDivisible:
        return False
    if hbar.degree != h.degree:
        return False
    return poly_gcd(hbar, hbar.derivative()).degree == 0


def _reduction_map(target, aimg, p):
    """Coefficient reduction into target: Q -> GF(p) when aimg is None, else
    Q(a) -> GF(p^l) on coefficient tuples at the chosen root aimg (an
    element of GF(p) is its own digit encoding in GF(p^l))."""
    if aimg is None:
        return lambda c: reduce_mod(c, p)
    return lambda c: pt_eval(target, [reduce_mod(x, p) for x in c], aimg)


def _try_prime(G, pi, minpolys, p):
    """The CongruenceData of the prime p for G over Q or a number field, or
    None when p fails a check.  Q is the degree-1 case: the target is GF(p).
    A number field's minimal polynomial f, monic over the integers, is
    factored once mod p.  p is unramified (p does not divide disc f)
    exactly when no factor repeats, and the generator maps to the least
    root of f in GF(p^l), l the least degree of a factor."""
    F = G.field
    if p % 2 == 0 or p in pi:
        return None
    target, aimg = field_from_json({"kind": "GF", "p": p}), None
    checks = {"odd": True, "coprime_to_denominators": True}
    if isinstance(F, NumberField):
        _, facs = factor(Poly.from_ints(target, F.minpoly))
        if any(e > 1 for _, e in facs):
            return None
        facs = sorted((g for g, _ in facs), key=lambda g: (g.degree, g.coeffs))
        if facs[0].degree == 1:
            aimg = min(target.neg(g.coeffs[0]) for g in facs if g.degree == 1)
        else:
            target = FiniteField(p, facs[0].degree, tuple(int(c) for c in facs[0].coeffs))
            aimg = _modulus_root(target, target)
        checks["unramified"] = True
    red = _reduction_map(target, aimg, p)
    if not all(_minpoly_stays_squarefree(h, red, target) for h in minpolys):
        return None
    checks["minpoly_squarefree_mod_p"] = True
    return CongruenceData(source=F, pi=pi, p=p, target=target, alpha_image=aimg, checks=checks)


def _select_prime(G, minpolys, prime_override):
    """The user's prime when it passes every check, else the least valid
    one; NoPrimeInRange when there is none.  The denominator primes are
    computed once for all primes tried.

    A generator that is not semisimple (minpolys holds None for it) has a
    minimal polynomial h with a repeated factor g^2, which fails at every
    prime, so it raises before any is tried.  At a p the other checks
    admit, g may be taken monic with p-integral coefficients (the
    p-integral ring is integrally closed when p does not divide the
    discriminant), so g-bar^2 divides h-bar; whenever deg h-bar = deg h,
    also deg g-bar = deg g >= 1, and the squarefree check rejects p."""
    for i, h in enumerate(minpolys):
        if h is None:
            raise NoPrimeInRange(f"generator {i} is not semisimple, so no prime keeps its minimal polynomial squarefree")
    pi = denominator_set(G)
    if prime_override is None:
        for p in takewhile(lambda p: p <= PRIME_CAP, odd_primes(3)):
            cd = _try_prime(G, pi, minpolys, p)
            if cd is not None:
                return cd
        raise NoPrimeInRange(f"no valid odd prime below {PRIME_CAP}")
    if not is_prime(prime_override):
        raise NoPrimeInRange(f"prime {prime_override} is not prime")
    cd = _try_prime(G, pi, minpolys, prime_override)
    if cd is None:
        raise NoPrimeInRange(f"prime {prime_override} fails the validity checks")
    return cd


def _ff_candidate_points(base, seed=0):
    """Evaluation point candidates in a canonical order: 0, 1, 2, ... over
    Q; the elements of a finite base, then of GF(p^(l*k)) for k = 2, 3, ..."""
    if isinstance(base, RationalField):
        yield from ((base, Fraction(k)) for k in count())
        return
    for a in base.elements():
        yield base, a
    for k in count(2):
        ext = FiniteField(base.p, base.l * k, seed=seed)
        for a in ext.elements():
            yield ext, a


def _embedding(base, ext):
    """The base field's map into the field ext of an evaluation point: the
    identity when ext is the base, else the embedding GF(p^l) ->
    GF(p^(l*k)) determined by the least root of the base modulus in ext."""
    if ext == base:
        return lambda a: a
    if base.l == 1:
        return lambda a: ext.from_coeffs([a])
    root = _modulus_root(base, ext)
    return lambda a: pt_eval(ext, base.digits(a), root)


@cache
def _modulus_root(base, ext):
    """The least root, by digits, in ext of the modulus of base, factored
    once per (base, ext) pair: every candidate point and every reduced
    matrix asks for the same embedding, and every number-field prime with
    target ext = base for the image of the field's generator."""
    _, facs = factor(Poly.from_ints(ext, base.modulus))
    roots = sorted(
        (ext.neg(g.coeffs[0]) for g, _ in facs if g.degree == 1),
        key=lambda a: tuple(ext.digits(a)),
    )
    if not roots:
        raise ArithmeticError("base modulus has no root in the extension")
    return roots[0]


def _evaluate_ff_matrix(field: FunctionField, m: Matrix, point_field, point):
    """m at X = point over point_field, the base itself or an extension of
    a finite base."""
    B = point_field
    conv = _embedding(field.base, B)

    def ev(c):
        num, den = (pt_eval(B, [conv(x) for x in part], point) for part in c)
        if B.is_zero(den):
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return B.mul(num, B.inv(den))

    return Matrix.make(B, [[ev(c) for c in row] for row in m.rows])


def _select_modulus_functionfield(G, config):
    """The first admissible point among the first EVAL_CAP candidates: no
    denominator factor vanishes there, and over Q(X) the evaluated group
    has a valid prime.  When a prime override fails at every admissible
    point, its own failure is raised; over a finite base every prime but
    the characteristic fails."""
    F = G.field
    base = F.base
    if not isinstance(base, RationalField) and config.prime_override not in (None, base.p):
        raise NoPrimeInRange(f"prime {config.prime_override} fails the validity checks")
    pi = denominator_set(G)
    rejected = None
    for B, a in islice(_ff_candidate_points(base, seed=config.seed), EVAL_CAP):
        conv = _embedding(base, B)
        if any(B.is_zero(pt_eval(B, [conv(c) for c in g], a)) for g in pi):
            continue
        evaluated = [_evaluate_ff_matrix(F, g, B, a) for g in G.gens]
        minpolys = [semisimple_minpoly(m) for m in evaluated]
        if not isinstance(base, RationalField):
            checks = {"evaluation_point_admissible": True, "image_semisimple": None not in minpolys}
            return CongruenceData(source=F, pi=pi, p=base.p, target=B, eval_point=a, eval_target=B, checks=checks)
        if None in minpolys:
            # no prime can pass here, so a kept rejection is about the prime
            continue
        try:
            inner = _select_prime(GroupSpec(QQ, evaluated), minpolys, config.prime_override)
        except NoPrimeInRange as e:
            rejected = e
            continue
        return CongruenceData(
            source=F,
            pi=pi,
            p=inner.p,
            target=inner.target,
            eval_point=a,
            eval_target=QQ,
            pi_after_eval=inner.pi,
            checks=dict(inner.checks, evaluation_point_admissible=True),
        )
    if rejected is not None and config.prime_override is not None:
        raise rejected
    raise NoPrimeInRange(f"no admissible evaluation data within {EVAL_CAP} candidates")


def select_modulus(G: GroupSpec, config: Config = DEFAULT, minpolys=None) -> CongruenceData:
    """Smallest valid reduction data for the group's coefficient field.

    minpolys are the generators' minimal polynomials when the caller has
    them (the Jordan split's), else they are computed here, None for a
    generator that is not semisimple; a function field reduces evaluated
    matrices and computes theirs."""
    F = G.field
    if isinstance(F, FiniteField):
        raise UnsupportedField("finite fields need no reduction")
    if isinstance(F, FunctionField):
        return _select_modulus_functionfield(G, config)
    if minpolys is None:
        minpolys = [semisimple_minpoly(g) for g in G.gens]
    return _select_prime(G, minpolys, config.prime_override)


def apply_congruence(m: Matrix, cd: CongruenceData) -> Matrix:
    """Entrywise reduction of a matrix through the validated modulus."""
    F = cd.source
    target = cd.target
    if isinstance(F, (RationalField, NumberField)):
        red = _reduction_map(target, cd.alpha_image, cd.p)
        return Matrix.make(target, [[red(c) for c in row] for row in m.rows])
    if isinstance(F, FunctionField):
        evaluated = _evaluate_ff_matrix(F, m, cd.eval_target, cd.eval_point)
        if isinstance(F.base, RationalField):
            return Matrix.make(target, [[reduce_mod(c, cd.p) for c in row] for row in evaluated.rows])
        return evaluated
    raise UnsupportedField(f"no reduction for {F.name()}")


def apply_congruence_group(G: GroupSpec, cd: CongruenceData) -> GroupSpec:
    return GroupSpec(cd.target, [apply_congruence(g, cd) for g in G.gens])


# ---------------------------------------------------------------------------
# the congruence kernel

def kernel_is_central(G: GroupSpec, kernel_elts):
    """(True, None) when every kernel normal generator commutes with every
    generator; otherwise (False, (z, i)) for the first offending pair in
    kernel order.

    No Matrix product is formed: one row kernel acts by the kernel
    matrices and one by the generators, and rows are canonical, so four
    act calls give the rows of every z, every g, every z g and every g z,
    which are compared.  The verdict's normal generators are distinct and
    never the identity (nilpotency._kernel_gens); in characteristic 0 a
    finite group has a trivial kernel, so there are none and no row kernel
    is built.
    """
    if not kernel_elts or not G.gens:
        return True, None
    _, act_z, _ = G.field.row_kernel([z.mat for z in kernel_elts])
    ident, act_g, _ = G.field.row_kernel(G.gens)
    n = G.degree
    z_rows, g_rows = act_z(ident), act_g(ident)
    zg = act_g([r for rows in z_rows for r in rows])
    gz = act_z([r for rows in g_rows for r in rows])
    for j, z in enumerate(kernel_elts):
        for i in range(len(G.gens)):
            if zg[i][j * n : (j + 1) * n] != gz[j][i * n : (i + 1) * n]:
                return False, (z, i)
    return True, None
