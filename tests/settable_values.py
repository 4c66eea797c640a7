"""Count the values a caller of fieldkit can set, per module and in total.

A settable value is an init field of a fieldkit dataclass (ClassVars and
init=False fields are not fields a caller passes) or a parameter with a
default of a fieldkit function or method. Parameters without a default are
inputs, not settings, and are not counted. Run it on two commits and compare
the listings to show how many settings a change adds or removes:

    PYTHONPATH=src python3 tests/settable_values.py

The name does not match pytest's test_*.py pattern, so the suite does not
collect it.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import fieldkit


def _defaulted(fn) -> int:
    return sum(p.default is not p.empty for p in inspect.signature(fn).parameters.values())


def _own(obj, module) -> bool:
    return getattr(obj, "__module__", None) == module.__name__


def settable_values(module) -> int:
    total = 0
    for obj in vars(module).values():
        if inspect.isfunction(obj) and _own(obj, module):
            total += _defaulted(obj)
        elif inspect.isclass(obj) and _own(obj, module):
            if dataclasses.is_dataclass(obj):
                total += sum(f.init for f in dataclasses.fields(obj))
            for name, member in vars(obj).items():
                fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                # a dataclass's generated __init__ repeats its fields
                if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                    total += _defaulted(fn)
    return total


def main() -> None:
    counts = {}
    for info in pkgutil.iter_modules(fieldkit.__path__):
        module = importlib.import_module(f"fieldkit.{info.name}")
        counts[info.name] = settable_values(module)
    for name, n in counts.items():
        print(f"{name:20s} {n:4d}")
    print(f"{'total':20s} {sum(counts.values()):4d}")


if __name__ == "__main__":
    main()
