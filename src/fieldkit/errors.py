"""Exception hierarchy shared across the package, and its value check.

InputError maps to CLI exit code 2, AlgorithmError to exit code 3.
"""


class FieldkitError(Exception):
    """Base class for all package errors."""


class InputError(FieldkitError):
    """Malformed or out-of-contract input (bad geometry, bad documents)."""


class AlgorithmError(FieldkitError):
    """A well-formed problem with no usable solution."""


class OutOfField(InputError):
    """Point lies outside the field rectangle (plus half-cell margin)."""


class NoPath(AlgorithmError):
    """The kick graph has no route from the ball cell to the target cells."""


class BehindCamera(AlgorithmError):
    """3D point is behind the camera's image plane."""


class HorizonRay(AlgorithmError):
    """Pixel ray does not descend toward the ground plane."""


class Degenerate(AlgorithmError):
    """All particle weights underflowed to zero (kidnapped-robot signal)."""


class DegenerateCloud(AlgorithmError):
    """Point cloud cannot support a plane fit."""


class DimensionMismatch(InputError):
    """Paired rasters disagree in shape."""


class CycleError(InputError):
    """Pipeline dependency graph contains a cycle."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("dependency cycle: " + " -> ".join(self.cycle))


class UnknownSlot(InputError):
    """A filter consumes a slot nothing produces."""

    def __init__(self, filter_name, slot):
        self.filter_name = filter_name
        self.slot = slot
        super().__init__(f"filter {filter_name!r} consumes unknown slot {slot!r}")


class DuplicateProducer(InputError):
    """Two filters declare the same output slot."""

    def __init__(self, slot, producers):
        self.slot = slot
        self.producers = list(producers)
        super().__init__(f"slot {slot!r} produced by {self.producers}")


class FilterError(AlgorithmError):
    """A pipeline filter raised; its frame published nothing."""

    def __init__(self, filter_name, cause):
        self.filter_name = filter_name
        self.__cause__ = cause
        super().__init__(f"filter {filter_name!r} failed: {cause!r}")


def check_fields(obj, what: str, checks) -> None:
    """Raise InputError for the first field of obj that fails its row of checks.

    A row is (names, ok, description); the message names what, the field,
    the description and the value."""
    for names, ok, description in checks:
        for name in names:
            value = getattr(obj, name)
            if not ok(value):
                raise InputError(f"{what} {name} must be {description}, got {value!r}")
