"""The base of the package's records: fields in `__slots__`, set by an
explicit `__init__`, so that importing a module generates no code."""


class Record:
    """Equal to a record of its own class with equal fields, hashed by them
    (so hashable when they are), and shown with them.  A slot whose name
    starts with an underscore holds what the fields determine, and takes no
    part."""

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__name__}({', '.join(shown)})"
