"""Exception types shared across the package, and ``require_methods``, the
check that a user's model supplies the methods its protocol names."""


class DiscvarError(Exception):
    """Base class for all errors raised by discvar."""


class OutOfChart(DiscvarError):
    """A group element lies outside the domain of the retraction chart."""


class NotInvertible(DiscvarError):
    """A force or control map cannot be inverted for the requested value."""


class RankDeficient(DiscvarError):
    """A control matrix does not have the rank its actuation level requires."""


class DimensionMismatch(DiscvarError):
    """Array shapes are inconsistent with the declared problem dimensions."""


class ConfigError(DiscvarError):
    """A run configuration file, or a model handed to a system, is malformed
    or self-contradictory."""


class StepSolveFailed(DiscvarError):
    """The implicit solve inside a single integrator step failed."""

    def __init__(self, step, message=""):
        self.step = step
        super().__init__(message or f"implicit step solve failed at step {step}")


class SingularJacobian(DiscvarError):
    """Newton hit a numerically singular Jacobian.

    Like NoConvergence, carries the best iterate seen and the solver report,
    and the report's best residual (infinite without a report).
    """

    def __init__(self, iteration, message="", best_x=None, report=None):
        self.iteration = iteration
        self.best_x = best_x
        self.report = report
        self.best_residual = float("inf") if report is None else report.residual_norm
        super().__init__(message or f"singular Jacobian at iteration {iteration}")


class NoConvergence(DiscvarError):
    """An iterative solver ran out of iterations.

    Carries the best iterate seen so callers can still inspect or dump it.
    """

    def __init__(self, best_residual, iterations, best_x=None, report=None):
        self.best_residual = best_residual
        self.iterations = iterations
        self.best_x = best_x
        self.report = report
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(best residual {best_residual:.3e})"
        )


# the methods of a potential, on a group (left-trivialized) and on R^n alike
POTENTIAL_METHODS = ("value", "left_grad", "left_hess", "left_curvature")


def require_methods(model, names, what):
    """Raise ConfigError unless ``model`` has a callable attribute for each
    of ``names``: a potential or drift must supply its own derivatives."""
    missing = [name for name in names if not callable(getattr(model, name, None))]
    if missing:
        raise ConfigError(f"{what} must supply {', '.join(missing)}")
