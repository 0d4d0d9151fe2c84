"""Tests for the unified component registry (repro.registry)."""

import pytest

from repro.registry import (
    Registry,
    UnknownComponent,
    UnknownComponentKwarg,
    registry,
)


class TestRegistryCore:
    def test_namespaces_populated_lazily(self):
        for namespace in (
            "frameworks", "attacks", "aggregations", "presets", "artefacts"
        ):
            assert registry.names(namespace), namespace

    def test_get_unknown_name_has_suggestion(self):
        with pytest.raises(UnknownComponent, match="did you mean 'safeloc'"):
            registry.get("frameworks", "safelok")

    def test_get_unknown_name_lists_choices(self):
        with pytest.raises(UnknownComponent, match="choices"):
            registry.get("attacks", "ddos")

    def test_unknown_namespace_rejected(self):
        with pytest.raises(KeyError):
            registry.get("spaceships", "enterprise")

    def test_duplicate_registration_rejected(self):
        fresh = Registry(("frameworks",))
        fresh.add("frameworks", "thing", lambda: None)
        with pytest.raises(ValueError, match="already registered"):
            fresh.add("frameworks", "thing", lambda: None)

    def test_builtin_name_cannot_be_registered_again(self):
        original = registry.get("frameworks", "safeloc")
        with pytest.raises(ValueError, match="already registered"):
            registry.add("frameworks", "safeloc", lambda: None)
        assert registry.get("frameworks", "safeloc") is original

    def test_has_reports_registered_names_only(self):
        assert registry.has("frameworks", "safeloc")
        assert not registry.has("frameworks", "safelok")
        with pytest.raises(KeyError):
            registry.has("spaceships", "enterprise")

    def test_metadata_from_signature(self):
        info = registry.get("attacks", "pgd")
        assert info.defaults == {"num_steps": 10, "step_fraction": 0.25}
        assert "num_steps" in info.accepts

    def test_paper_flag_partition(self):
        paper = registry.names("attacks", paper=True)
        extensions = registry.names("attacks", paper=False)
        assert paper == ("clb", "fgsm", "pgd", "mim", "label_flip")
        assert set(extensions) == {"targeted_label_flip", "gaussian_noise"}

    def test_components_sorted_by_name(self):
        names = [c.name for c in registry.components("frameworks")]
        assert names == sorted(names)


class TestContracts:
    """Registration metadata agrees with every factory signature:
    create() filters kwargs to the declared surface, so drift would
    surface as a TypeError or a silently dropped knob at sweep time."""

    def test_registrations_match_their_factories(self):
        assert registry.contract_problems() == []

    def test_bad_registration_is_reported(self):
        fresh = Registry(("frameworks",))
        fresh.add(
            "frameworks", "closed", lambda clients, seed=0: None,
            extra_kwargs=("lost",),
        )
        fresh.add("frameworks", "inert", 42)
        problems = fresh.contract_problems()
        assert len(problems) == 2
        assert problems[0].startswith(
            "frameworks/closed: accepted kwarg 'lost'"
        )
        assert problems[1] == (
            "frameworks/inert: registered factory is not callable"
        )


class TestStrictKwargs:
    def test_typo_raises_with_suggestion(self):
        with pytest.raises(UnknownComponentKwarg, match="did you mean 'num_steps'"):
            registry.create("attacks", "pgd", 0.1, num_step=3)

    def test_sweep_uniform_kwargs_filtered(self):
        # num_classes is only accepted by label flipping, but the sweep
        # universe (the whole namespace) knows it: filtered, not fatal
        attack = registry.create("attacks", "fgsm", 0.1, num_classes=12)
        assert type(attack).__name__ == "FGSM"

    def test_explicit_sweep_narrows_the_universe(self):
        with pytest.raises(UnknownComponentKwarg):
            registry.create(
                "attacks", "fgsm", 0.1, num_classes=12, sweep=("fgsm", "pgd")
            )

    def test_strict_is_not_an_escape_hatch(self):
        """There is no lenient mode: ``strict`` is just another unknown
        kwarg, and the typo next to it is still reported."""
        with pytest.raises(UnknownComponentKwarg, match="strict"):
            registry.create("attacks", "pgd", 0.1, strict=False, num_step=3)

    def test_validate_kwargs_accepts_known(self):
        registry.validate_kwargs(
            "frameworks", "safeloc", {"tau": 0.1, "server_mixing": 0.5}
        )

    def test_closed_surface_for_extra_kwargs_factory(self):
        info = registry.get("frameworks", "safeloc")
        assert "server_mixing" in info.accepts

    def test_accepts_is_defaulted_parameters_plus_extra_kwargs(self):
        fresh = Registry(("frameworks",))
        info = fresh.add(
            "frameworks", "inner", lambda clients, seed=0, **kwargs: None,
            extra_kwargs=("tau",),
        )
        assert info.defaults == {"seed": 0}
        assert info.accepts == {"seed", "tau"}  # required params excluded

    def test_var_keyword_factory_is_not_open(self):
        """A ``**kwargs`` factory accepts only what it declares: a kwarg
        outside its surface and its namespace's is still rejected."""
        fresh = Registry(("frameworks",))
        fresh.add(
            "frameworks", "inner", lambda clients, seed=0, **kwargs: kwargs,
            extra_kwargs=("tau",),
        )
        assert fresh.create("frameworks", "inner", 3, tau=0.1) == {"tau": 0.1}
        with pytest.raises(UnknownComponentKwarg, match="did you mean 'tau'"):
            fresh.create("frameworks", "inner", 3, taus=0.1)


class TestShims:
    def test_create_attack_strict_default(self):
        from repro.attacks.registry import create_attack

        with pytest.raises(TypeError, match="num_steps"):
            create_attack("mim", 0.2, num_step=4)
        assert create_attack("mim", 0.2, num_steps=4).num_steps == 4

    def test_make_framework_strict_default(self):
        from repro.baselines.registry import make_framework

        with pytest.raises(TypeError, match="did you mean 'tau'"):
            make_framework("safeloc", 8, 5, seed=0, taus=0.1)
        spec = make_framework("safeloc", 8, 5, seed=0, tau=0.1)
        assert spec.name == "safeloc"

    def test_legacy_name_tuples_preserved(self):
        from repro.attacks.registry import ATTACK_NAMES, PAPER_ATTACKS
        from repro.baselines.registry import (
            COMPARISON_FRAMEWORKS,
            FRAMEWORK_NAMES,
        )

        assert PAPER_ATTACKS == ("clb", "fgsm", "pgd", "mim", "label_flip")
        assert ATTACK_NAMES[:5] == PAPER_ATTACKS
        assert COMPARISON_FRAMEWORKS == (
            "safeloc", "onlad", "fedhil", "fedcc", "fedls", "fedloc"
        )
        assert FRAMEWORK_NAMES == (*COMPARISON_FRAMEWORKS, "krum")


class TestBatchedClientsCapability:
    def test_every_framework_model_has_a_fold_batch_program(self):
        """``client_engine="batched"`` stacks every registered
        framework's local training: each stock model must expose a
        fold-batch program."""
        from repro.baselines.registry import make_framework

        for name in registry.names("frameworks"):
            spec = make_framework(name, 8, 5, seed=0)
            program = spec.model_factory().fold_batch_program()
            assert program is not None, name
