"""Immutable value records.

A :class:`Record` subclass lists its fields as class annotations, in
order, each with an optional default as its class attribute, the way a
frozen dataclass does.  The base gives construction by position or
keyword, equality between instances of the same class, a hash of the
fields, the dataclass ``repr`` and refusal of assignment.  It generates
no code per class: ``dataclasses`` imports ``inspect`` and compiles
methods for each class it decorates, which every process that loads the
package would pay before it reads any input.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    """Base of an immutable value record (see the module docstring)."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        fields = tuple(own.get("__annotations__", ()))
        cls._fields = fields
        cls._defaults = {name: own[name] for name in fields if name in own}

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value, in order, from the constructor's arguments;
        a TypeError for a missing, extra or unknown one."""
        fields = cls._fields
        title = f"{cls.__qualname__}()"
        if len(args) > len(fields):
            raise TypeError(
                f"{title} takes {len(fields)} positional arguments "
                f"but {len(args)} were given"
            )
        values = list(args)
        for name in fields[len(args) :]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{title} missing required argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            if name in fields:
                raise TypeError(f"{title} got multiple values for argument {name!r}")
            raise TypeError(f"{title} got an unexpected keyword argument {name!r}")
        return values

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values())
        )
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
