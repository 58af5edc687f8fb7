"""``Record``, the immutable base of the package's public result and state
records.

A record names its fields in ``__slots__`` and its constructor's positional
fields, in order, in ``__match_args__``; a subclass that declares no slots
of its own, by ``__slots__ = ()`` or by no ``__slots__`` at all, keeps
them. ``Record`` gives it the behaviour of a
``dataclasses.dataclass(frozen=True)`` class: a ``repr`` of every field,
``==`` and ``hash`` on the tuple of fields between records of the same class,
AttributeError on assignment and deletion, and copies and pickles that go
through the constructor. The package thus imports neither ``dataclasses``
nor the ``inspect`` module it loads.

Each field is stored through its slot's own descriptor: ``_stores`` holds
one ``__set__`` per field, in ``_field_names`` order, bound once per class.
A constructor unpacks it and calls each store: about two thirds of the
cost of ``object.__setattr__``, which looks the field's name up on the
class on every call. No other way of storing a field is used.
"""


class Record:
    """Base of an immutable record whose fields are its ``__slots__``."""

    __slots__ = _field_names = _stores = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # the slots of the nearest class that declared some
        cls._field_names = cls.__dict__.get("__slots__") or cls._field_names
        cls._stores = tuple(getattr(cls, name).__set__ for name in cls._field_names)

    def __init__(self, *values) -> None:
        # for the records whose constructors only store their arguments
        for store, value in zip(self._stores, values):
            store(self, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._field_names)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._field_names)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)
