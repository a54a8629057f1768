"""discvar: discrete variational integrators and optimal control on Lie groups."""

# the command line (``discvar.cli``) is imported by name, not here: an eager
# import would put it in sys.modules before ``python -m discvar.cli`` runs it
from . import errors, lgoc, lie, mech, solvers, systems, tboc  # noqa: F401

__version__ = "0.1.0"
