"""Exception taxonomy.

Budget and usage problems are typed errors so that a run can never turn
resource exhaustion into a wrong verdict.  Negative analysis outcomes that
carry a witness travel as NotNilpotentSignal and are converted to Verdict
objects at the public entry points.
"""


class NilmatError(Exception):
    """Base class for all package errors."""


class DenominatorDivisible(NilmatError):
    """Reduction mod p hit a denominator divisible by p."""


class UnsupportedField(NilmatError):
    """The operation is not defined for this coefficient field."""


class Singular(NilmatError):
    """Matrix inversion of a singular matrix."""


class ImperfectField(NilmatError):
    """A p-th root that GF(q)(X) lacks, or a query it cannot answer."""


class NoPrimeInRange(NilmatError):
    """No valid reduction prime below the configured cap."""


class CapExceeded(NilmatError):
    """A closure or Cayley enumeration passed its configured cap."""

    def __init__(self, cap, what="closure"):
        super().__init__(f"{what} exceeded cap {cap}")
        self.cap = cap
        self.what = what


class NonexistenceError(NilmatError):
    """Requested maximal nilpotent subgroup does not exist for these parameters."""


class UnsupportedTwoCase(NilmatError):
    """Wreath construction for r = 2 with p^l = 3 mod 4 is not provided."""


class ParseError(NilmatError):
    """Malformed group file or entry."""


class SingularGenerator(NilmatError):
    """A group file generator is not invertible."""


class NotUnipotent(NilmatError):
    """Result signal: the given unipotent matrices do not generate a unipotent group.

    Carries the quotient-level generators whose common fixed space is zero,
    so the claim can be re-verified by rank computations alone.
    """

    def __init__(self, level, quotient_gens):
        super().__init__(f"zero fixed space at flag level {level}")
        self.level = level
        self.quotient_gens = quotient_gens


class NotNilpotentSignal(Exception):
    """Internal control flow: a non-nilpotency witness was found."""

    def __init__(self, witness):
        super().__init__(witness.kind if witness is not None else "not nilpotent")
        self.witness = witness
