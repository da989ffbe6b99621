"""Exception hierarchy shared by the whole engine."""


class EllipticaError(Exception):
    """Base class for all engine errors."""


# --- linear algebra ---------------------------------------------------------

class CompositionNotZero(EllipticaError):
    """d_out . d_in != 0: the differential upstream is broken."""


# --- graded algebra / Lie algebra -------------------------------------------

class DegreeMismatch(EllipticaError):
    """An element fails a homogeneity or degree-shift requirement."""


class NotInAlgebra(EllipticaError):
    """A term or a generator index lies outside the free algebra: a word
    that is no Lie basis key, or an index that no generator has."""


# --- models -----------------------------------------------------------------

class TruncationNotClosed(EllipticaError):
    """A differential image escapes the truncated generator range."""


class InternalInconsistency(EllipticaError):
    """A quantity the theory forces to vanish came out nonzero."""


class ExactnessFailure(EllipticaError):
    """A Whitehead sequence node failed im = ker; this is an engine bug."""


class NotEllipticWithinBound(EllipticaError):
    """The model has no ellipticity certificate, so it is not elliptic."""


class UnboundedGamma(EllipticaError):
    """Vanishing of the Gamma spaces could not be certified in the window."""


# --- DSL / catalog ----------------------------------------------------------

class ModelSyntaxError(EllipticaError):
    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        self.where = "" if line is None else f" (line {line}" + (
            "" if col is None else f", col {col}") + ")"
        super().__init__(message + self.where)


class UnknownGenerator(ModelSyntaxError):
    pass


class DegreeError(ModelSyntaxError):
    pass


class OddSquareError(ModelSyntaxError):
    pass


class ValidationError(EllipticaError):
    """A model failed structural validation (d^2 != 0, etc.); carries the
    model and its ValidationReport."""

    def __init__(self, model, report):
        self.model = model
        self.report = report
        super().__init__(
            f"{model!r}: " + "; ".join(map(str, report.issues)))


class UnknownCatalogEntry(EllipticaError):
    pass


class BadParameter(EllipticaError):
    pass
