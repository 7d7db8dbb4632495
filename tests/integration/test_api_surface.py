"""FIG12: the framework's class diagram — the public API surface.

The paper's Figure 12 shows the roles and their operations. These tests
pin the public API: names exported, contracts of the interfaces, and the
documented signatures the paper's diagram promises.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro
import repro.core

#: ``repro`` and every subpackage of it that declares ``__all__``
EXPORTING_PACKAGES = [
    name for name in ["repro"] + [
        info.name for info in pkgutil.walk_packages(
            repro.__path__, prefix="repro.",
        ) if info.ispkg
    ]
    if hasattr(importlib.import_module(name), "__all__")
]

#: names retired with the second wake policy and the library paths that
#: only their own tests reached
RETIRED_NAMES = [
    ("repro.concurrency", "ActiveObject"),
    ("repro.concurrency", "MethodRequest"),
    ("repro.aspects", "SnapshotTransactionAspect"),
    ("repro.aspects", "UndoLogAspect"),
    ("repro.aspects", "StateInvariantAspect"),
    ("repro.aspects.validation", "StateInvariantAspect"),
    ("repro.analysis", "span_to_dot"),
    ("repro.analysis.diagram", "span_to_dot"),
    ("repro.dist", "BalancingPolicy"),
    ("repro.dist", "RandomChoice"),
    ("repro.dist", "LeastLoaded"),
    ("repro.dist", "WeightedChoice"),
]

#: (callable, keyword) pairs for options that no longer exist
RETIRED_OPTIONS = [
    ("repro.core.moderator", "AspectModerator", "notify_scope"),
    ("repro.core.registry", "Cluster", "notify_scope"),
    ("repro.apps.ticketing", "build_ticketing_cluster", "notify_scope"),
    ("repro.dist.loadbalance", "LoadBalancer", "policy"),
]


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__

    def test_core_roles_exported(self):
        for name in (
            "Aspect", "AspectBank", "AspectFactory", "AspectModerator",
            "ComponentProxy", "Cluster", "JoinPoint", "AspectResult",
        ):
            assert hasattr(repro.core, name), name

    @pytest.mark.parametrize("package", EXPORTING_PACKAGES)
    def test_all_lists_are_accurate(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert hasattr(module, name), (
                f"{package}.__all__ lists missing {name!r}"
            )

    @pytest.mark.parametrize("package, name", RETIRED_NAMES)
    def test_retired_name_not_exported(self, package, name):
        module = importlib.import_module(package)
        assert not hasattr(module, name)
        assert name not in getattr(module, "__all__", ())

    @pytest.mark.parametrize("module_name, owner, keyword", RETIRED_OPTIONS)
    def test_retired_option_not_accepted(self, module_name, owner, keyword):
        target = getattr(importlib.import_module(module_name), owner)
        assert keyword not in inspect.signature(target).parameters


class TestFigure12Contracts:
    def test_moderator_has_paper_operations(self):
        from repro.core import AspectModerator
        for operation in ("preactivation", "postactivation",
                          "register_aspect"):
            assert callable(getattr(AspectModerator, operation))

    def test_preactivation_signature(self):
        from repro.core import AspectModerator
        parameters = inspect.signature(
            AspectModerator.preactivation
        ).parameters
        assert "method_id" in parameters
        assert "joinpoint" in parameters
        assert "timeout" in parameters

    def test_aspect_interface_has_pre_and_post(self):
        from repro.core import Aspect
        assert callable(Aspect.precondition)
        assert callable(Aspect.postaction)
        assert callable(Aspect.on_abort)

    def test_factory_interface_declares_create(self):
        from repro.core import AspectFactory
        assert inspect.isabstract(AspectFactory)
        parameters = inspect.signature(AspectFactory.create).parameters
        assert list(parameters) == [
            "self", "method_id", "concern", "component",
        ]

    def test_aspect_is_abstractable_but_subclass_concrete(self):
        from repro.core import Aspect, NullAspect
        assert NullAspect()  # concrete default implementation works


class TestDocumentation:
    def test_public_classes_documented(self):
        import repro.core as core
        undocumented = [
            name for name in core.__all__
            if inspect.isclass(getattr(core, name))
            and not (getattr(core, name).__doc__ or "").strip()
        ]
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_aspect_library_documented(self):
        import repro.aspects as aspects
        undocumented = [
            name for name in aspects.__all__
            if inspect.isclass(getattr(aspects, name))
            and not (getattr(aspects, name).__doc__ or "").strip()
        ]
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_all_modules_have_docstrings(self):
        import pkgutil

        import repro as package
        missing = []
        for info in pkgutil.walk_packages(package.__path__,
                                          prefix="repro."):
            module = __import__(info.name, fromlist=["_"])
            if not (module.__doc__ or "").strip():
                missing.append(info.name)
        assert not missing, f"modules without docstrings: {missing}"
