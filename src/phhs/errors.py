"""Exception types shared across the package."""


class PhhsError(Exception):
    """Base class for all package-specific errors."""


class DegenerateFormError(PhhsError):
    """A complex 2-form is degenerate (no symplectic partner found)."""


class SingularFormError(PhhsError):
    """A pointwise linear solve against a 2-form failed."""


class NonClosedFormError(PhhsError):
    """A 1-form that must be closed fails the loop-integral diagnostic."""


class MissingPrimitiveError(PhhsError):
    """An action functional was requested on a model without a symplectic primitive."""


class NotHolomorphicError(PhhsError):
    """A Hamiltonian failed the numerical Cauchy-Riemann validation."""


class QDependenceError(PhhsError):
    """A torus Hamiltonian depends on the position coordinates."""


class ZeroDenominatorError(PhhsError):
    """A conformal factor vanishes on the sampled working domain."""


class StepBudgetExceededError(PhhsError):
    """A flow would need more steps than the configured budget."""


class NonFiniteStateError(PhhsError):
    """Flow coordinates overflowed or became non-finite (singular locus hit).

    Raised by a flow's state check, it carries where that happened: the
    ``step`` index, the flow ``time`` reached, the stack ``row`` (None for a
    single point) and that row's ``state``.  Raised by a field inside a flow
    step, the flow raises it again with that step, the flow time and state
    the step started from, and the row: the one the field named on an array
    stack, the one being stepped on the lane.  Raised elsewhere,
    these are None (a field may name the ``row`` of its stack).
    """

    def __init__(self, message, step=None, time=None, row=None, state=None):
        super().__init__(message)
        self.step = step
        self.time = time
        self.row = row
        self.state = state


class NoReturnError(PhhsError):
    """A periodic-orbit search did not see the angle advance a full turn."""


class SingularMetricError(PhhsError):
    """A metric is not invertible at an evaluation point."""


class ParseError(PhhsError):
    """Expression source text is not valid under the grammar.

    Attributes
    ----------
    pos : int
        Byte offset of the first byte at which no grammar continuation exists.
    expected : tuple of str
        Token classes that would have been acceptable at ``pos``.
    """

    def __init__(self, message, pos, expected=()):
        super().__init__(f"{message} at offset {pos}" + (f" (expected {', '.join(sorted(expected))})" if expected else ""))
        self.pos = pos
        self.expected = tuple(sorted(expected))
