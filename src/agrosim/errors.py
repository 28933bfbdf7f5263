"""Exception hierarchy for the agrosim package."""


class AgroSimError(Exception):
    """Base class for all errors raised by agrosim."""


class InvalidParameterError(AgroSimError):
    """A numeric parameter violates its domain (non-positive mass, weight, gain, ...)."""


class DegenerateInertiaError(AgroSimError):
    """An effective inertia divisor came out non-positive."""


class AllocationSingularityError(AgroSimError):
    """The steering configuration cannot allocate the requested roll/pitch torque."""

    def __init__(self, delta1: float, delta2: float, tol: float):
        self.delta1 = delta1
        self.delta2 = delta2
        self.tol = tol
        super().__init__(
            f"singular steering configuration: delta1={delta1!r} rad, "
            f"delta2={delta2!r} rad, |sin(delta1 - delta2)| < {tol:g}"
        )

    def __reduce__(self):
        # pickle rebuilds from the constructor's arguments, not from args
        return type(self), (self.delta1, self.delta2, self.tol)


class DivergenceError(AgroSimError):
    """The integrated state became non-finite."""

    def __init__(self, step: int, t: float):
        self.step = step
        self.t = t
        super().__init__(f"non-finite state after step {step} (t = {t:.6g} s)")

    def __reduce__(self):
        return type(self), (self.step, self.t)


class InvalidWindowError(AgroSimError):
    """A metrics window is empty or outside the recorded horizon."""


class ConfigError(AgroSimError):
    """A scenario configuration document violates the schema."""


class DisturbanceBudgetError(AgroSimError):
    """A disturbance component exceeds its share of the control budget."""


class ComparisonInvalidError(AgroSimError):
    """Two scenarios cannot be compared (mismatched initial or reference state)."""
