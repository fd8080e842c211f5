"""Record classes without the dataclasses module.

``record`` gives a class ``__init__``, ``__eq__``, ``__hash__`` and
``__repr__`` over its field annotations, the way ``dataclasses.dataclass``
does for the options the package uses.  Importing ``dataclasses`` pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``, which no command needs and
which cost every process several milliseconds of start-up.

Only ``__init__`` is generated source, one ``exec`` per class: every other
method is a function of this module shared by all records, which reads the
class's field names and field getter.  A process compiles none of them per
class.
"""

from operator import attrgetter

__all__ = ["record"]


def _eq(self, other):
    if other.__class__ is self.__class__:
        values = self.__record_values__
        return values(self) == values(other)
    return NotImplemented


def _hash(self):
    return hash(self.__record_values__(self))


def _repr(self):
    fields = ", ".join(f"{name}={value!r}" for name, value
                       in zip(self.__record_fields__, self.__record_values__(self)))
    return f"{self.__class__.__qualname__}({fields})"


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _values(names):
    """The getter of an instance's field tuple: attrgetter gives a bare value
    for one name, so that tuple is built around it."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return attrgetter(*names)


def record(*, frozen=False, slots=False):
    """Class decorator: a value class over the annotated fields, in order.

    Equality goes by type and field tuple, and ``hash`` is the hash of the
    field tuple, both as ``dataclasses`` computes them (for an unfrozen
    record, as with its ``unsafe_hash``: such a record must not change while
    it is a set member or a dict key).  ``__post_init__`` runs after the
    fields are set.  Assigning to a frozen record raises AttributeError; its
    ``__post_init__`` may still normalize a field with
    ``object.__setattr__``.  ``slots`` rebuilds the class with
    ``__slots__`` set to the fields.
    """

    def wrap(cls):
        names = tuple(cls.__dict__.get("__annotations__", {}))
        defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        if slots:
            body = {key: value for key, value in cls.__dict__.items()
                    if key not in ("__dict__", "__weakref__")}
            cls = type(cls)(cls.__name__, cls.__bases__, dict(body, __slots__=names))

        lines = ["def __init__(self, " + ", ".join(
            f"{name}=_d_{name}" if name in defaults else name for name in names) + "):"]
        # A frozen record's fields go in through object.__setattr__, as in
        # dataclasses: writing to self.__dict__ instead would materialize the
        # instance dict and make every later attribute read slower.
        lines += [f"    _setattr(self, {name!r}, {name})" if frozen else f"    self.{name} = {name}"
                  for name in names]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        namespace = {f"_d_{name}": value for name, value in defaults.items()}
        namespace["_setattr"] = object.__setattr__
        exec("\n".join(lines), namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        methods = {"__init__": init, "__eq__": _eq, "__hash__": _hash, "__repr__": _repr}
        if frozen:
            methods.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
        for name, function in methods.items():
            setattr(cls, name, function)
        cls.__record_fields__ = names
        cls.__record_values__ = staticmethod(_values(names))
        return cls

    return wrap
