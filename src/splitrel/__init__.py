"""Split-half parallel test construction, reliability, and battery scoring.

The pipeline: load or simulate a binary score matrix, dichotomise it
into two near-parallel halves, estimate the test's error variance and
reliability from the halves' disagreement, regress per-examinee true
scores, and aggregate several tests into a battery with chosen weights.

Each module's ``__all__`` is the one declaration of its public names;
the package re-exports them all.  Importing the package loads only its
version: the first lookup of another public name, or of ``__all__``,
imports the modules and builds ``__all__`` from their lists (PEP 562),
so ``python -m splitrel.cli`` loads only what its subcommand runs.
"""

from importlib import import_module

from ._version import __version__

_MODULES = ("errors", "data_model", "splitter", "reliability", "truescore", "battery", "simulate")


def _export() -> None:
    names = ["__version__"]
    for name in _MODULES:
        module = import_module(f".{name}", __name__)
        globals().update((attr, getattr(module, attr)) for attr in module.__all__)
        names += module.__all__
    globals()["__all__"] = names


def __getattr__(name: str):
    if "__all__" not in globals() and (name == "__all__" or not name.startswith("_")):
        _export()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
