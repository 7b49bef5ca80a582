"""Congruence homomorphisms onto matrix groups over finite fields.

A validated modulus reduces GL(n, D_pi) onto GL(n, GF(p^l)) with a kernel
that is torsion-free in characteristic zero, so a finite group maps
injectively.  The kernel is normally generated by the Schreier generators of
the image's Cayley graph, lifted along the transversal to the source group
(congruence_kernel).  The checks bundled in CongruenceData are exactly the
ones that buy that guarantee: p odd, coprime to the denominators, unramified
for number fields, and keeping the generators' minimal polynomials
squarefree so the image stays semisimple.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from fractions import Fraction

from .config import DEFAULT, Config
from .errors import CapExceeded, DenominatorDivisible, NoPrimeInRange, UnsupportedField
from .fields import (
    QQ,
    FiniteField,
    FunctionField,
    NumberField,
    RationalField,
    pt_eval,
    reduce_mod,
)
from .groups import GroupSpec, dedup_elts, enumerate_group
from .linalg import Matrix, semisimple_minpoly
from .numth import factorint, odd_primes
from .poly import Poly, factor, gcd as poly_gcd, resultant

PRIME_CAP = 2**20    # largest reduction prime tried
EVAL_CAP = 200       # evaluation points tried for function fields


@dataclass(frozen=True)
class CongruenceData:
    source: object                 # Field
    pi: tuple                      # denominator data (primes, or irreducible polys)
    p: int                         # reduction prime (char of the target)
    target: object                 # finite Field
    alpha_image: object = None     # root of the defining polynomial in the target
    eval_point: object = None      # function-field substitution point
    pi_after_eval: tuple = ()      # second-stage denominators for P(X), P = Q
    eval_target: object = None     # base field hosting the evaluation point
    checks: dict = dfield(default_factory=dict)

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


def _rational_denominator_primes(mats):
    dens = set()
    for m in mats:
        for row in m.rows:
            for c in row:
                if c.denominator != 1:
                    dens.add(c.denominator)
    out = set()
    for d in dens:
        out.update(factorint(d))
    return tuple(sorted(out))


def _numberfield_denominator_primes(field, mats):
    out = set()
    for m in mats:
        for row in m.rows:
            for c in row:
                z = field.denominator_clearing(c)
                if z > 1:
                    out.update(factorint(z))
    return tuple(sorted(out))


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
    if isinstance(F, RationalField):
        return _rational_denominator_primes(mats)
    if isinstance(F, NumberField):
        return _numberfield_denominator_primes(F, mats)
    if isinstance(F, FunctionField):
        return _functionfield_denominator_factors(F, mats)
    raise UnsupportedField("denominator analysis applies to infinite coefficient fields")


def _minpoly_stays_squarefree(h: Poly, reduce_coeff, target):
    """Whether the coefficient-wise reduction of the squarefree h stays
    squarefree; h None (a generator that is not semisimple) never does."""
    if h is None:
        return False
    try:
        hbar = Poly.make(target, [reduce_coeff(c) for c in h.coeffs])
    except DenominatorDivisible:
        return False
    if hbar.degree != h.degree:
        return False
    return poly_gcd(hbar, hbar.derivative()).degree == 0


def _try_prime_rational(G, pi, minpolys, p):
    if p % 2 == 0 or any(p == q for q in pi):
        return None
    target = FiniteField(p)
    if not all(
        _minpoly_stays_squarefree(h, lambda c: reduce_mod(c, p), target) for h in minpolys
    ):
        return None
    return CongruenceData(
        source=G.field,
        pi=pi,
        p=p,
        target=target,
        checks={
            "odd": True,
            "coprime_to_denominators": True,
            "minpoly_squarefree_mod_p": True,
            "p_gt_n": p > G.degree,
        },
    )


def _first_valid_prime(G, minpolys, try_prime):
    """Least odd prime p <= PRIME_CAP with try_prime(p) not None, preferring
    p > n.

    A generator that is not semisimple (minpolys holds None for it) has a
    minimal polynomial h with a repeated factor g^2, which fails at every
    prime, so it raises before any is tried.  At a p the other checks
    admit, g may be taken monic with p-integral coefficients (the
    p-integral ring is integrally closed when p does not divide the
    discriminant), so g-bar^2 divides h-bar; whenever deg h-bar = deg h,
    also deg g-bar = deg g >= 1, and the squarefree check rejects p."""
    message = f"no valid odd prime below {PRIME_CAP}"
    if any(h is None for h in minpolys):
        raise NoPrimeInRange(message)
    for require_gt_n in (True, False):
        for p in odd_primes(3):
            if p > PRIME_CAP:
                break
            if require_gt_n and p <= G.degree:
                continue
            cd = try_prime(p)
            if cd is not None:
                return cd
    raise NoPrimeInRange(message)


def _frobenius_roots(target: FiniteField, factor_poly: Poly):
    """All roots of an irreducible factor inside GF(p^l), lexicographically sorted
    by coefficient vector."""
    l = target.l
    if l == 1:
        return [target.neg(factor_poly.coeffs[0])]
    root = target.from_coeffs([0, 1])
    roots = []
    cur = root
    for _ in range(l):
        roots.append(cur)
        cur = target.frobenius(cur)
    roots.sort(key=lambda a: tuple(target.digits(a)))
    return roots


def _nf_reduction_map(target, aimg, p):
    """Coefficient-tuple reduction Q(a) -> GF(p^l) at the chosen root (an
    element of GF(p) is its own digit encoding in GF(p^l))."""
    return lambda c: pt_eval(target, [reduce_mod(x, p) for x in c], aimg)


def _try_prime_numberfield(G, pi, minpolys, disc_num, p):
    F = G.field
    if p % 2 == 0 or any(p == q for q in pi) or disc_num % p == 0:
        return None
    Fp = FiniteField(p)
    fbar = Poly.from_ints(Fp, F.minpoly)
    _, facs = factor(fbar)
    facs = sorted((g for g, _ in facs), key=lambda g: (g.degree, g.coeffs))
    l = facs[0].degree
    if l == 1:
        # least root among the linear factors
        target = Fp
        aimg = min(Fp.neg(g.coeffs[0]) for g in facs if g.degree == 1)
    else:
        chosen = facs[0]
        target = FiniteField(p, l, tuple(int(c) for c in chosen.coeffs))
        aimg = _frobenius_roots(target, chosen)[0]
    red = _nf_reduction_map(target, aimg, p)
    if not all(_minpoly_stays_squarefree(h, red, target) for h in minpolys):
        return None
    return CongruenceData(
        source=F,
        pi=pi,
        p=p,
        target=target,
        alpha_image=aimg,
        checks={
            "odd": True,
            "coprime_to_denominators": True,
            "unramified": True,
            "minpoly_squarefree_mod_p": True,
            "p_gt_n": p > G.degree,
        },
    )


def _prime_trial(G, minpolys):
    """try_prime(p): the CongruenceData of the prime p for G over Q or a
    number field, or None when p fails a check.  The denominator primes,
    and a number field's discriminant, are computed once for all p."""
    F = G.field
    pi = denominator_set(G)
    if isinstance(F, NumberField):
        fq = Poly.from_ints(QQ, F.minpoly)
        disc_num = abs(resultant(fq, fq.derivative()).numerator)
        return lambda p: _try_prime_numberfield(G, pi, minpolys, disc_num, p)
    return lambda p: _try_prime_rational(G, pi, minpolys, p)


def _select_prime(G, minpolys, prime_override):
    """The user's prime when it passes every check, else the least valid
    one; NoPrimeInRange when there is none."""
    try_prime = _prime_trial(G, minpolys)
    if prime_override is None:
        return _first_valid_prime(G, minpolys, try_prime)
    cd = try_prime(prime_override)
    if cd is None:
        raise NoPrimeInRange(f"prime {prime_override} fails the validity checks")
    return cd


def _ff_candidate_points(base, seed=0):
    """Evaluation point candidates in a canonical order; finite bases extend
    to GF(p^(l*k)) when the base is exhausted."""
    if isinstance(base, RationalField):
        k = 0
        while k <= EVAL_CAP:
            yield base, Fraction(k)
            k += 1
        return
    for a in base.elements():
        yield base, a
    k = 2
    while True:
        ext = FiniteField(base.p, base.l * k, seed=seed)
        for a in ext.elements():
            yield ext, a
        k += 1


def _embedding(base: FiniteField, ext: FiniteField):
    """Field embedding GF(p^l) -> GF(p^(l*k)) determined by the least root of
    the base modulus in the extension."""
    if base.l == 1:
        return lambda a, ext=ext: ext.from_coeffs([a])
    mod_poly = Poly.from_ints(ext, base.modulus)
    _, facs = factor(mod_poly)
    roots = sorted(
        (ext.neg(g.coeffs[0]) for g, _ in facs if g.degree == 1),
        key=lambda a: tuple(ext.digits(a)),
    )
    if not roots:
        raise ArithmeticError("base modulus has no root in the extension")
    return lambda a: pt_eval(ext, base.digits(a), roots[0])


def _evaluate_ff_matrix(field: FunctionField, m: Matrix, point_field, point):
    """m at X = point over point_field, the base itself or an extension of
    a finite base."""
    B = point_field
    conv = (lambda v: v) if B == field.base else _embedding(field.base, B)

    def ev(c):
        num, den = (pt_eval(B, [conv(x) for x in part], point) for part in c)
        if B.is_zero(den):
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return B.mul(num, B.inv(den))

    return Matrix.make(B, [[ev(c) for c in row] for row in m.rows])


def _select_modulus_functionfield(G, config):
    F = G.field
    base = F.base
    pi = denominator_set(G)
    pi_polys = [Poly.make(base, cs) for cs in pi]
    n = G.degree
    tried = 0
    fallback = None
    for point_field, a in _ff_candidate_points(base, seed=config.seed):
        tried += 1
        if tried > EVAL_CAP:
            break
        # the point must not be a root of any denominator factor
        if isinstance(base, RationalField):
            if any(g.evaluate(a) == 0 for g in pi_polys):
                continue
            try:
                evaluated = [_evaluate_ff_matrix(F, g, QQ, a) for g in G.gens]
            except ZeroDivisionError:
                continue
            Geval = GroupSpec(QQ, evaluated)
            minpolys = [semisimple_minpoly(g) for g in evaluated]
            try:
                inner = _select_prime(Geval, minpolys, config.prime_override)
            except NoPrimeInRange:
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
        else:
            if point_field is base:
                vanishes = any(base.is_zero(g.evaluate(a)) for g in pi_polys)
            else:
                emb = _embedding(base, point_field)
                vanishes = any(
                    point_field.is_zero(
                        Poly.make(point_field, [emb(c) for c in g.coeffs]).evaluate(a)
                    )
                    for g in pi_polys
                )
            if vanishes:
                continue
            try:
                evaluated = [_evaluate_ff_matrix(F, g, point_field, a) for g in G.gens]
            except ZeroDivisionError:
                continue
            semisimple = all(semisimple_minpoly(m) is not None for m in evaluated)
            cd = CongruenceData(
                source=F,
                pi=pi,
                p=base.p,
                target=point_field,
                eval_point=a,
                eval_target=point_field,
                checks={"evaluation_point_admissible": True, "image_semisimple": semisimple},
            )
            # prefer a point keeping the generators semisimple; otherwise the
            # first admissible point still gives a valid evaluation
            if semisimple:
                return cd
            if fallback is None:
                fallback = cd
    if fallback is not None:
        return fallback
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
    if isinstance(F, RationalField):
        return Matrix.make(target, [[reduce_mod(c, cd.p) for c in row] for row in m.rows])
    if isinstance(F, NumberField):
        red = _nf_reduction_map(target, cd.alpha_image, cd.p)
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

def congruence_kernel(G: GroupSpec, image_gens, cap):
    """(image order, normal generators of the congruence kernel).

    The kernel of G.gens[i] -> image_gens[i] is normally generated by the
    Schreier generators of the image's Cayley graph lifted to G: one per
    non-tree edge, in discovery order, trivial ones included.  Each word
    is the relator of its edge over the generators of G.  The lift runs on
    G's row ids (groups.enumerate_group), so only a nontrivial generator
    costs a product over G's field: a finite G, whose kernel is trivial in
    characteristic 0, forms none.
    """
    enum = enumerate_group(list(image_gens), cap, lift=G.elts())
    if enum.overflowed:
        raise CapExceeded(cap, "Cayley closure")
    return len(enum), enum.schreier


def kernel_is_central(G: GroupSpec, kernel_elts):
    """(True, None) when every kernel normal generator commutes with every
    generator; otherwise (False, (z, i)) for the first offending pair in
    kernel order.

    Each distinct nontrivial kernel matrix is tested once.  The identity
    commutes with everything, and a repeated matrix passed at its first
    occurrence (had it failed, that occurrence would have been returned), so
    skipping either cannot change the answer.
    In characteristic 0 the kernel is torsion-free, so a finite group meets
    it only in the identity and no product is formed at all.
    """
    for z in dedup_elts(kernel_elts):
        for i, g in enumerate(G.gens):
            if not (z.mat * g == g * z.mat):
                return False, (z, i)
    return True, None
