"""Argument checks and value types, shared by every module of the package.

A leaf module: it imports nothing from the package.  The checks
(:func:`as_int`, :func:`is_bool`, :func:`as_real` and :func:`as_fraction`,
the one exact reader) refuse a ``bool``, ``str`` or ``bytes`` with
``TypeError``.  The real check :func:`as_real` is the one home of the rule
that a real input reads -0.0 as 0.0, so no result depends on the sign of a
zero input.  A result can still hold a signed zero of its own, such as the
complex division of :func:`deltamachine.scattering.amplitudes` yields at
E = 0.

The value types of the numpy-free modules (``spheres``, ``band``,
``regimes`` and ``scattering``) are ``__slots__`` classes finished by one
decorator, :func:`value_type`: it adds the equality, hashing, ``repr``,
pickling and immutability of a frozen dataclass, built with closures from
the class's ``__slots__``, so the exact and scalar commands neither import
:mod:`dataclasses` (and through it ``inspect``) nor ``exec`` generated
methods at start-up.  Each class writes its own ``__init__``, which
validates first and then sets each slot once.  The table builders, which
validate K once, build their column states, rows, witnesses and verdicts
a column at a time instead, with the class's unchecked bulk maker
``_make_all``.  The result types of the simulations stay dataclasses:
``bench/test_checks.py`` calls ``dataclasses.replace`` on
``EnsembleResult``, and ``EmpiricalRow`` and ``EmpiricalTable`` have not
been moved to :func:`value_type` yet.
"""

from __future__ import annotations

import operator
from collections import deque
from fractions import Fraction
from itertools import repeat
from numbers import Complex, Rational, Real


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
    """``value`` as a ``float``, -0.0 as 0.0; any bool, ``str``, ``bytes``,
    complex number or other value that ``float`` refuses (``None``, say)
    raises ``TypeError``."""
    if type(value) is float:
        return value + 0.0
    complex_ = isinstance(value, Complex) and not isinstance(value, Real)
    if not (complex_ or is_bool(value) or isinstance(value, (str, bytes, bytearray))):
        try:
            return float(value) + 0.0
        except TypeError:  # None, a list, ...
            pass
    raise TypeError(f"{what} must be a real number, not {type(value).__name__}")


def as_fraction(value: object, what: str) -> Fraction:
    """``value``, a ``Rational`` (numpy integers included) or a real with
    ``as_integer_ratio`` (a float, a numpy float of any width, a ``Decimal``),
    as the ``Fraction`` it equals; any other value, bool and ``str``
    included, raises ``TypeError``, an infinity or a NaN ``ValueError``."""
    if is_bool(value) or not (isinstance(value, Rational) or hasattr(value, "as_integer_ratio")):
        raise TypeError(f"{what} must be a real number, not {type(value).__name__}")
    try:
        return Fraction(value) if isinstance(value, Rational) else Fraction(*value.as_integer_ratio())
    except (OverflowError, ValueError):
        raise ValueError(f"{what} must be finite, not {value!r}") from None


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
    * ``_make_all(count, *columns)``, a private maker of ``count``
      instances at once, returned as a tuple: instance i takes item i of
      each column, one column per field in order.  It makes the bare
      instances with ``object.__new__`` and fills each slot from its column
      through the slot's member descriptor, in ``map`` calls that a
      ``deque`` drains, so no Python frame runs per instance.  It checks
      nothing, for callers that have already validated the fields (the
      table builders, once per K): each column must hold at least ``count``
      values (an endless ``itertools.repeat`` is fine), and a shorter one
      leaves slots unset.  Only a wrong number of columns raises
      ``ValueError``.
    """
    names = cls.__slots__
    get = operator.attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)
    template = ", ".join(f"{name}=%r" for name in names)
    new = object.__new__
    setters = [getattr(cls, name).__set__ for name in names]
    drain = deque(maxlen=0).extend  # runs an iterator to its end, keeping nothing

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

    def _make_all(count, *columns):
        instances = tuple(map(new, repeat(cls, count)))
        for set_field, column in zip(setters, columns, strict=True):
            drain(map(set_field, instances, column))
        return instances

    for method in (__eq__, __hash__, __repr__, __reduce__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    cls._make_all = staticmethod(_make_all)
    cls.__match_args__ = names
    return cls
