"""Argument checks and value types, shared by every module of the package.

A leaf module: it imports nothing from the package.  The checks
(:func:`as_int`, :func:`is_bool`, :func:`as_real`, :func:`as_real_array`)
refuse a ``bool``, ``str`` or ``bytes`` with ``TypeError``.

The value types of the numpy-free modules (``spheres``, ``band``,
``regimes`` and ``scattering``) are ``__slots__`` classes finished by one
decorator, :func:`value_type`: it adds the equality, hashing, ``repr``,
pickling and immutability of a frozen dataclass, built with closures from
the class's ``__slots__``, so the exact and scalar commands neither import
:mod:`dataclasses` (and through it ``inspect``) nor ``exec`` generated
methods at start-up.  Each class writes its own ``__init__``, which
validates first and then sets each slot once; the table builders, which
validate K once, build their states and witnesses with the class's
unchecked maker ``_make`` instead.  The result types of the
simulations stay dataclasses, since numpy costs their commands far more.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def as_int(value: object, what: str) -> int:
    """``value`` as a plain ``int``.

    Anything that supports ``operator.index`` passes, numpy integers
    included; ``bool`` and non-integers raise ``TypeError``.
    """
    if isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, not bool")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer") from None


def is_bool(value: object) -> bool:
    """Whether ``value`` is a Python or a numpy ``bool``."""
    return isinstance(value, bool) or getattr(getattr(value, "dtype", None), "kind", None) == "b"


def as_real(value: object, what: str) -> float:
    """``value`` as a ``float``; any bool, ``str`` or ``bytes`` raises ``TypeError``."""
    if is_bool(value) or isinstance(value, (str, bytes, bytearray)):
        raise TypeError(f"{what} must be a real number, not {type(value).__name__}")
    return float(value)


def as_real_array(values: object, what: str) -> np.ndarray:
    """``values`` as float64; str, bytes, bool or complex entries raise ``TypeError``.

    An ``ndarray`` is checked by its dtype, any other input (a list, say)
    and an object array entry by entry, before numpy converts a bool.
    """
    import numpy as np

    a = np.asarray(values)
    if a.dtype.kind in "USbc":
        raise TypeError(f"{what} must be real numbers, not {a.dtype}")
    if a.dtype.kind == "O" or not isinstance(values, np.ndarray):
        entries = np.asarray(values, dtype=object).flat
        return np.array([as_real(v, what) for v in entries], np.float64).reshape(a.shape)
    return a.astype(np.float64, copy=False)


class FrozenInstanceError(AttributeError):
    """A write to, or a deletion of, an attribute of a :func:`value_type` instance."""


def value_type(cls: type) -> type:
    """Give a ``__slots__`` class the methods of a frozen dataclass.

    The fields are ``cls.__slots__``, in order, and the class's own
    ``__init__`` sets each of them once with ``object.__setattr__``.  Added:

    * ``__eq__`` and ``__hash__`` over the tuple of the fields (an instance
      equals only an instance of the same class);
    * ``__repr__``, e.g. ``ElectricState(k_plus=1, k_minus=2)``;
    * ``__reduce__``, which rebuilds an instance through its constructor,
      for ``pickle`` and ``copy``;
    * ``__setattr__`` and ``__delattr__``, which raise
      :class:`FrozenInstanceError`;
    * ``__match_args__``, the field names;
    * ``_make(*fields)``, a private maker that sets the slots through their
      member descriptors and checks nothing, for callers that have already
      validated the fields (the table builders, once per K).
    """
    names = cls.__slots__
    get = operator.attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)
    template = ", ".join(f"{name}=%r" for name in names)
    new = object.__new__
    setters = [getattr(cls, name).__set__ for name in names]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({template % fields(self)})"

    def __reduce__(self):
        return type(self), fields(self)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    if len(setters) == 2:
        # Unrolled for the hot two-field makers (column states, witnesses).
        set_first, set_second = setters

        def _make(first, second):
            self = new(cls)
            set_first(self, first)
            set_second(self, second)
            return self

    else:

        def _make(*fields):
            self = new(cls)
            for set_field, value in zip(setters, fields, strict=True):
                set_field(self, value)
            return self

    for method in (__eq__, __hash__, __repr__, __reduce__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    cls._make = staticmethod(_make)
    cls.__match_args__ = names
    return cls
