"""Exact arithmetic for polynomial Pell equations and their monodromy.

Importing the package loads no submodule: `pellab.census` and the others
are imported on first access (PEP 562), so a command pays only for the
modules it runs.
"""

__version__ = "0.1.0"

__all__ = ["census", "cli", "degrees", "exactpoly", "hurwitz", "pellcore", "permgroup", "__version__"]


def __getattr__(name: str):
    if name in __all__:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
