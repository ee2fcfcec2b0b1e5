"""Exact arithmetic for polynomial Pell equations and their monodromy.

Importing the package loads no submodule: `pellab.census` and the others
are imported on first access (PEP 562), so a command pays only for the
modules it runs.  Every command imports this module first, so it holds
what the modules share: `_Record`, the records' base; the exponents that
`pellcore` tries on A and `hurwitz` on the tuple of the cover; and the
rule that leading zeros do not count when digits are read.
"""

from collections import _tuplegetter  # the accessor namedtuple uses
from itertools import dropwhile

__version__ = "0.1.0"

__all__ = ["census", "cli", "exactpoly", "hurwitz", "pellcore", "permgroup", "__version__"]


def __getattr__(name: str):
    if name in __all__:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Record(tuple):
    """A tuple with named fields and the part of the namedtuple interface
    the package uses: `_fields`, the repr `Name(field=value, ...)`, and
    copy and pickle.  A subclass declares `__slots__ = ()`, so its values
    carry no `__dict__`, and a `__new__` whose arguments, with their
    defaults, are the fields in order.  Unlike `collections.namedtuple`,
    whose `eval` of a generated `__new__` was most of a record's cost at
    start-up, defining one runs no generated code.  `__getnewargs__` hands
    copy and pickle the fields as `__new__`'s arguments: tuple's own would
    hand it the whole tuple as the first field.

    >>> class Point(_Record):
    ...     __slots__ = ()
    ...
    ...     def __new__(cls, x, y=0):
    ...         return tuple.__new__(cls, (x, y))
    >>> import copy
    >>> p = Point(1)
    >>> p, p.y, Point._fields, copy.copy(Point(1, 2))
    (Point(x=1, y=0), 0, ('x', 'y'), Point(x=1, y=2))
    """

    __slots__ = ()

    def __init_subclass__(cls):
        new = cls.__new__
        cls._fields = fields = new.__code__.co_varnames[1 : new.__code__.co_argcount]
        for i, name in enumerate(fields):
            setattr(cls, name, _tuplegetter(i, f"Alias for field number {i}"))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, self._fields, self))})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)


def admissible_exponents(n: int, d: int) -> list[int]:
    """The exponents m >= 2 for which a solution with deg A = n and
    deg D = 2d can be an m-th power: m divides n and the root keeps
    degree n/m >= d."""
    return [m for m in range(2, n + 1) if n % m == 0 and n // m >= d]


def _significant(digits: str, most: int) -> str:
    """digits, a run of decimal digits of any script, without its leading
    zeros ("0" if none is left) when it is longer than most, where 0 means
    no bound.  The caller refuses a result still longer than most.

    >>> _significant("0007", 3), _significant("007", 3), _significant("0000", 3)
    ('7', '007', '0')
    """
    if 0 < most < len(digits):
        return "".join(dropwhile(lambda c: not int(c), digits)) or "0"
    return digits
