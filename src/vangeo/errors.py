"""Exception types shared across the package.

Every operational failure mode maps to one of these classes so the CLI can
translate them into exit statuses uniformly (usage/domain problems exit 2,
verification failures exit 1).
"""


class VangeoError(Exception):
    """Base class for all package-specific errors."""


class DomainError(VangeoError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ParseError(VangeoError, ValueError):
    """A textual input (base, tolerance, range) could not be parsed."""


class SizeError(VangeoError, ValueError):
    """A size guard was exceeded: the work asked for is refused up front."""


class UndecidableComparisonError(VangeoError, RuntimeError):
    """An enclosure comparison stayed ambiguous at the precision ceiling."""
