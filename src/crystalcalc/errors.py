"""Error types raised when a structure cannot be built.

The checks never raise on a failed certification: each returns a
``CheckReport`` whose status is ``fail``, ``inconclusive`` or ``pass``, in
that order of precedence, and a caller that wants an exception reads its
``passed``.  A ``CrystalError`` means that a lift, a filler, a homotopy, a
complex or a stored reference could not be built at all; it carries a
reproducible witness (a monomial, a matrix row, a degree) where one exists.
"""


class CrystalError(Exception):
    """Base class; ``witness`` holds the offending object, if any."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# linear algebra
class ContainmentViolation(CrystalError):
    """Image rows do not lie in the kernel span: d after d is not zero."""


# series arithmetic
class VarSpecMismatch(CrystalError):
    pass


class SubstitutionOutsideIdeal(CrystalError):
    """A capped variable was mapped to a series with a unit constant term."""


class NotInvertible(CrystalError):
    pass


# simplicial site
class IncompatibleFaces(CrystalError):
    pass


class PrecisionExhausted(CrystalError):
    pass


# smooth lifting
class RewriteLoop(ValueError):
    """The rewrite rules of a presentation do not terminate.

    A ValueError, not a CrystalError: the input is malformed, nothing was
    checked and found false.
    """


class WitnessNotInvertible(CrystalError):
    pass


class NewtonStall(CrystalError):
    pass


class NotCongruent(CrystalError):
    pass


# de Rham / descent
class CapsTooSmall(CrystalError):
    pass


class NotACover(CrystalError):
    pass


# crystalline comparison
class CatalogMismatch(CrystalError):
    pass


class SignConventionViolation(CrystalError):
    pass
