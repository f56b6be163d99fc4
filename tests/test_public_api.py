"""Public API surface checks: exports exist, __all__ is honest."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.addr",
    "repro.asdb",
    "repro.internet",
    "repro.scanner",
    "repro.dealias",
    "repro.datasets",
    "repro.preprocess",
    "repro.tga",
    "repro.metrics",
    "repro.experiments",
    "repro.analysis",
    "repro.reporting",
    "repro.telemetry",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    """Every name in __all__ must actually exist on the package."""
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), package_name
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_no_duplicate_exports(package_name):
    package = importlib.import_module(package_name)
    assert len(package.__all__) == len(set(package.__all__)), package_name


class TestTopLevelSurface:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_quickstart_names(self):
        """The names the README quickstart uses are all importable."""
        from repro import (  # noqa: F401
            ALL_PORTS,
            ALL_TGA_NAMES,
            DealiasMode,
            InternetConfig,
            Port,
            Scanner,
            SimulatedInternet,
            Study,
            create_tga,
        )

    def test_cli_module_runs(self):
        from repro.cli import build_parser

        parser = build_parser()
        # The parser exposes all documented nouns and their verbs.
        choices = parser._subparsers._group_actions[0].choices  # type: ignore[union-attr]
        assert set(choices) == {"world", "study", "serve", "trace", "top"}

        def verbs(noun: str) -> set[str]:
            return set(choices[noun]._subparsers._group_actions[0].choices)

        assert verbs("world") == {"describe", "sources", "overlap"}
        assert verbs("study") == {
            "run",
            "grid",
            "resume",
            "rq1a",
            "rq1b",
            "rq2",
            "rq3",
            "rq4",
            "convergence",
            "recommend",
            "report",
        }

    def test_docstrings_everywhere(self):
        """Every public module and exported class/function is documented."""
        for package_name in PACKAGES:
            package = importlib.import_module(package_name)
            assert package.__doc__, package_name
            for name in package.__all__:
                obj = getattr(package, name)
                if callable(obj) or isinstance(obj, type):
                    assert getattr(obj, "__doc__", None), f"{package_name}.{name}"
