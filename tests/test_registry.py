"""The generic name registry behind every pluggable catalogue."""

import pytest

from repro.attacks.models import (
    SlanderingModel,
    attack_registry,
    get_attack,
    register_attack,
)
from repro.core.backend import available_backends, backend_registry, get_backend, register_backend
from repro.utils.registry import Registry


class Missing(KeyError, ValueError):
    pass


@pytest.fixture
def colours():
    registry = Registry("colour", Missing, label="paint colour", extra_names=("auto",))
    registry.register("red", 1, aliases=("rouge", "rot"))
    registry.register("blue", 2)
    return registry


@pytest.fixture
def scratch_registries(monkeypatch):
    """Let a test overwrite built-in entries without leaking them."""
    for registry in (attack_registry, backend_registry):
        monkeypatch.setattr(registry, "entries", dict(registry.entries))
        monkeypatch.setattr(registry, "aliases", dict(registry.aliases))


class TestLookup:
    def test_aliases_resolve_to_canonical_entries(self, colours):
        assert colours.resolve("rot") == "red"
        assert colours.get("rouge") == colours.get("red") == 1
        assert colours.names() == ("blue", "red")

    def test_unknown_name_lists_catalogue_and_extra_names(self, colours):
        with pytest.raises(Missing) as info:
            colours.get("green")
        assert str(info.value) == (
            "\"unknown paint colour 'green'; available: blue, red, rot, rouge, auto\""
        )

    def test_add_registers_under_the_items_own_name(self):
        class Named:
            name = "self-named"

        registry = Registry("thing")
        item = Named()
        assert registry.add(item) is item
        assert registry.get("self-named") is item


class TestRegistration:
    def test_rejects_empty_name(self, colours):
        with pytest.raises(ValueError, match="colour name must be a non-empty string"):
            colours.register("", 3)

    def test_rejects_a_name_as_its_own_alias(self, colours):
        with pytest.raises(ValueError, match="'green' cannot be its own alias"):
            colours.register("green", 3, aliases=("green",))
        with pytest.raises(ValueError, match="'red' cannot be its own alias"):
            colours.register("red", 3, aliases=("red",), overwrite=True)
        assert colours.names() == ("blue", "red")
        assert colours.get("red") == 1
        with pytest.raises(Missing):
            colours.resolve("green")

    def test_conflicts_leave_no_partial_entry(self, colours):
        with pytest.raises(ValueError, match="colour alias 'rot' is already registered"):
            colours.register("green", 3, aliases=("vert", "rot"))
        assert "green" not in colours.names()
        with pytest.raises(Missing):
            colours.resolve("vert")

    def test_reregistering_a_name_keeps_its_aliases(self, colours):
        colours.register("red", 10, overwrite=True)
        assert colours.get("rouge") == 10

    def test_overwritten_alias_becomes_canonical(self, colours):
        colours.register("rouge", 3, overwrite=True)
        assert colours.names() == ("blue", "red", "rouge")
        assert colours.get("rouge") == 3
        assert colours.get("rot") == 1

    def test_overwritten_canonical_name_becomes_alias(self, colours):
        colours.register("crimson", 4, aliases=("red",), overwrite=True)
        assert colours.names() == ("blue", "crimson")
        assert colours.get("red") == 4
        # The displaced entry's own aliases follow its name.
        assert colours.get("rouge") == 4


class TestOverwriteOnBuiltinRegistries:
    def test_alias_claim_replaces_a_builtin_attack(self, scratch_registries):
        register_attack("demo", SlanderingModel, aliases=("collusion",), overwrite=True)
        assert get_attack("collusion") is SlanderingModel
        assert "collusion" not in attack_registry.names()

    def test_canonical_claim_retires_a_backend_alias(self, scratch_registries):
        register_backend("vector", get_backend("sparse"), overwrite=True)
        assert "vector" in available_backends()
        assert get_backend("vector") is get_backend("sparse")
        # "vector" is no longer also an alias of "dense".
        with pytest.raises(KeyError) as info:
            get_backend("gpu")
        assert str(info.value).count("vector") == 1
