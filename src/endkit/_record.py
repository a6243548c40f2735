"""The base of endkit's value records.

A record names its fields, in constructor order, in ``__slots__``, the
values a constructor may omit in ``_defaults``, and validates its fields in
``_check``.  ``==`` holds between records of one class with equal fields,
``hash`` is the hash of the tuple of fields, ``repr`` is
``Name(field=value, ...)``, assignment raises AttributeError, and pickle,
``copy`` and `replace` rebuild a record through ``__init__``, so its checks
run again.  A call that passes every field positionally skips ``_bind``, the
slow part of ``__init__``.  The ``dataclass`` decorator would give the same,
but its module loads ``inspect``, which with the code it generates per class
cost each CLI child more than most commands' own work.  `_is_int`, the
exact-integer check that the records' validation shares, lives here too.
"""


def _is_int(value: object) -> bool:
    """An integer that is not a bool (JSON true and false are not numbers)."""
    return isinstance(value, int) and not isinstance(value, bool)


class Record:
    __slots__ = ()
    _defaults: dict = {}  # the values of fields a constructor may omit

    def __init_subclass__(cls) -> None:
        # each slot's own store, which bypasses the refusing __setattr__
        cls._stores = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._stores):
            args = self._bind(args, kwargs)
        for store, value in zip(self._stores, args):
            store(self, value)
        self._check()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """Every field's value, from a call with keywords or omitted fields."""
        names = self.__slots__
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        unexpected = len(args) > len(names) or not kwargs.keys() <= set(names[len(args):])
        if unexpected or len(values) < len(names):
            raise TypeError(f"{type(self).__qualname__}{names} given {args} and {kwargs}")
        return [values[name] for name in names]

    def _check(self) -> None:
        """Validate, and normalize, the fields once ``__init__`` has set them."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def replace(record: Record, **changes) -> Record:
    """``record`` with some fields changed, built and checked by its ``__init__``."""
    return type(record)(**dict(zip(record.__slots__, record._values()), **changes))
