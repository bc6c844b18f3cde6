"""One name registry for every pluggable catalogue.

Gossip backends, comparison algorithms, attack families, scenarios and
experiments are all selected by name. Each catalogue is one
module-level :class:`Registry`, and its public functions are that
instance's bound methods::

    backend_registry = Registry("backend", UnknownBackendError, ...)
    register_backend = backend_registry.register
    get_backend = backend_registry.get

so registration, alias resolution and the unknown-name error behave
the same everywhere. The push-kernel registry
(:mod:`repro.core.kernels`) is deliberately separate: its entries carry
an availability probe and an auto-preference order, which no other
catalogue has.
"""

from __future__ import annotations

from typing import Dict, Generic, Tuple, Type, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """Canonical names mapped to entries, plus aliases of those names.

    Parameters
    ----------
    kind:
        Entry noun used in registration errors (``"backend"``).
    error:
        Exception class raised for an unknown name.
    label:
        Noun used in the unknown-name message (defaults to ``kind``).
    extra_names:
        Names callers accept beside the registered ones (``"auto"``),
        appended to the catalogue in the unknown-name message.

    Every name is either canonical (a key of :attr:`entries`) or an
    alias (a key of :attr:`aliases`), never both.

    Examples
    --------
    >>> colours = Registry("colour", label="paint colour")
    >>> colours.register("red", "#f00", aliases=("rouge",))
    >>> colours.get("rouge"), colours.resolve("rouge"), colours.names()
    ('#f00', 'red', ('red',))
    >>> colours.get("blue")
    Traceback (most recent call last):
        ...
    KeyError: "unknown paint colour 'blue'; available: red, rouge"
    """

    def __init__(
        self,
        kind: str,
        error: Type[Exception] = KeyError,
        *,
        label: str = "",
        extra_names: Tuple[str, ...] = (),
    ):
        self.kind = kind
        self.error = error
        self.label = label or kind
        self.extra_names = extra_names
        self.entries: Dict[str, T] = {}
        self.aliases: Dict[str, str] = {}

    def register(
        self,
        name: str,
        item: T,
        *,
        aliases: Tuple[str, ...] = (),
        overwrite: bool = False,
    ) -> None:
        """Register ``item`` under ``name`` (plus optional aliases).

        With ``overwrite=True`` every claimed name is taken over: a
        former alias becomes canonical, a former canonical name becomes
        an alias of ``name`` (its own aliases follow it).

        Examples
        --------
        >>> tools = Registry("tool")
        >>> tools.register("hammer", 1, aliases=("mallet",))
        >>> tools.register("mallet", 2)
        Traceback (most recent call last):
            ...
        ValueError: tool 'mallet' is already registered (pass overwrite=True)
        >>> tools.register("mallet", 2, overwrite=True)
        >>> tools.names(), tools.get("mallet")
        (('hammer', 'mallet'), 2)
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} name must be a non-empty string, got {name!r}")
        if name in aliases:
            raise ValueError(f"{self.kind} {name!r} cannot be its own alias")
        if not overwrite:
            # Validate every name before mutating anything, so a conflict
            # never leaves a half-registered entry behind.
            if name in self.entries or name in self.aliases:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered (pass overwrite=True)"
                )
            for alias in aliases:
                if alias in self.entries or alias in self.aliases:
                    raise ValueError(f"{self.kind} alias {alias!r} is already registered")
        self.aliases.pop(name, None)
        self.entries[name] = item
        for alias in aliases:
            if alias in self.entries:
                del self.entries[alias]
                for other, target in self.aliases.items():
                    if target == alias:
                        self.aliases[other] = name
            self.aliases[alias] = name

    def add(self, item: T, *, overwrite: bool = False) -> T:
        """Register a self-named ``item`` under ``item.name``; return it.

        Examples
        --------
        >>> from types import SimpleNamespace
        >>> shapes = Registry("shape")
        >>> shapes.add(SimpleNamespace(name="disc")).name
        'disc'
        """
        self.register(item.name, item, overwrite=overwrite)
        return item

    def resolve(self, name: str) -> str:
        """Canonical name for ``name`` (resolving aliases).

        Examples
        --------
        >>> units = Registry("unit")
        >>> units.register("metre", 1.0, aliases=("m",))
        >>> units.resolve("m")
        'metre'
        """
        if name in self.entries:
            return name
        if name in self.aliases:
            return self.aliases[name]
        catalogue = ", ".join(
            sorted(self.entries) + sorted(self.aliases) + list(self.extra_names)
        )
        raise self.error(f"unknown {self.label} {name!r}; available: {catalogue}")

    def get(self, name: str) -> T:
        """Look up a registered entry by name or alias.

        Examples
        --------
        >>> units = Registry("unit")
        >>> units.register("metre", 1.0, aliases=("m",))
        >>> units.get("m") == units.get("metre") == 1.0
        True
        """
        return self.entries[self.resolve(name)]

    def names(self) -> Tuple[str, ...]:
        """Canonical names of all registered entries, sorted.

        Examples
        --------
        >>> units = Registry("unit")
        >>> units.register("second", 1.0, aliases=("s",))
        >>> units.register("metre", 1.0)
        >>> units.names()
        ('metre', 'second')
        """
        return tuple(sorted(self.entries))
