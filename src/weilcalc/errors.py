"""Exception types raised by the engine.

Every failure mode that callers are expected to branch on gets its own
class; message text is advisory only.
"""


class WeilError(Exception):
    """Base class for all engine errors."""


class AlgebraMismatch(WeilError):
    """Operands belong to different algebras."""


class NotUnital(WeilError):
    """A linear map does not send the unit to the unit."""


class NotMultiplicative(WeilError):
    """A linear map fails multiplicativity; carries the worst basis pair."""

    def __init__(self, pair, deviation, message=None):
        self.pair = pair
        self.deviation = deviation
        super().__init__(
            message
            or "map is not multiplicative: worst basis pair %r deviates by %.3e"
            % (pair, deviation)
        )


class DomainError(WeilError):
    """An analytic primitive was evaluated outside its real domain."""


class DivisionByNilpotent(WeilError):
    """Division by an element whose real part is zero."""


class ArityMismatch(WeilError):
    """Program composition or evaluation with the wrong number of slots."""


class TextTooLong(WeilError):
    """Rendered text would pass its length limit."""


class ShapeMismatch(WeilError):
    """Coefficient data of the wrong shape for the requested algebra/dim."""


class IncompatiblePair(WeilError):
    """Two second-order tangents do not satisfy the swap compatibility."""


class SingularLinearPart(WeilError):
    """A jet has a (numerically) singular linear part."""


class InvariantViolation(WeilError):
    """A sampled structural invariant failed; carries the worst sample."""

    def __init__(self, message, worst=None):
        self.worst = worst
        super().__init__(message)


class NonProjectable(WeilError):
    """A field required to be projectable to the base is not."""
