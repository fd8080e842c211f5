"""Record classes without the dataclasses module.

``record`` writes ``__init__``, ``__eq__``, ``__hash__`` and ``__repr__``
from a class's field annotations, the way ``dataclasses.dataclass`` does
for the options the package uses.  Importing ``dataclasses`` pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``, which no command needs and
which cost every process several milliseconds of start-up.
"""

__all__ = ["record"]


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

        def field_tuple(obj):
            return "(" + "".join(f"{obj}.{name}," for name in names) + ")"

        lines = ["def __init__(self, " + ", ".join(
            f"{name}=_d_{name}" if name in defaults else name for name in names) + "):"]
        # A frozen record's fields go in through object.__setattr__, as in
        # dataclasses: writing to self.__dict__ instead would materialize the
        # instance dict and make every later attribute read slower.
        lines += [f"    _setattr(self, {name!r}, {name})" if frozen else f"    self.{name} = {name}"
                  for name in names]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        lines += [
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return {field_tuple('self')} == {field_tuple('other')}",
            "    return NotImplemented",
            "def __hash__(self):",
            f"    return hash({field_tuple('self')})",
            "def __repr__(self):",
            "    return f'{self.__class__.__qualname__}("
            + ", ".join(f"{name}={{self.{name}!r}}" for name in names) + ")'",
            "def __setattr__(self, name, value):",
            "    raise AttributeError(f'cannot assign to field {name!r}')",
            "def __delattr__(self, name):",
            "    raise AttributeError(f'cannot delete field {name!r}')",
        ]
        namespace = {f"_d_{name}": value for name, value in defaults.items()}
        namespace["_setattr"] = object.__setattr__
        exec("\n".join(lines), namespace)
        generated = ["__init__", "__eq__", "__hash__", "__repr__"]
        generated += ["__setattr__", "__delattr__"] if frozen else []
        for name in generated:
            function = namespace[name]
            function.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, function)
        return cls

    return wrap

