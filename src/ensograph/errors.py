"""Exception types shared across the package.

``ValueError`` is reserved for bad arguments (wrong shapes, out-of-range
options); the classes here mark failures of the data itself or of the
numerics, which callers may want to handle differently.
"""


class EnsographError(Exception):
    """Base class for package-specific failures."""


class ValidationError(EnsographError):
    """A data file or in-memory dataset violates its contract."""


class NumericalError(EnsographError):
    """A computation produced NaN or Inf where finite values are required."""


def _check_types(ints, numbers=()):
    """Raise TypeError unless each (name, value) pair in `ints` holds an int and
    each in `numbers` an int or a float. A bool is neither, though Python counts
    it as an int; the name only labels the message."""
    for pairs, kinds, noun in ((ints, int, "an integer"), (numbers, (int, float), "a number")):
        for name, value in pairs:
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise TypeError(f"{name} {value!r} is not {noun}")
