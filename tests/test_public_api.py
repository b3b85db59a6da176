"""Public-API hygiene: every package imports, __all__ names resolve."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.api",
    "repro.engine",
    "repro.util",
    "repro.obs",
    "repro.tabular",
    "repro.stats",
    "repro.names",
    "repro.gender",
    "repro.geo",
    "repro.scholar",
    "repro.confmodel",
    "repro.calibration",
    "repro.synth",
    "repro.harvest",
    "repro.pipeline",
    "repro.analysis",
    "repro.report",
    "repro.viz",
    "repro.collab",
    "repro.survey",
    "repro.universe",
    "repro.review",
    "repro.forecast",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    mod = importlib.import_module(name)
    assert mod is not None


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    for symbol in getattr(mod, "__all__", []):
        assert hasattr(mod, symbol), f"{name}.__all__ lists missing {symbol!r}"


def test_every_submodule_importable():
    """Walk the whole tree; no module may fail to import."""
    failures = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name == "repro.__main__":  # running it is its import effect
            continue
        try:
            importlib.import_module(info.name)
        except Exception as exc:  # pragma: no cover - failure reporting
            failures.append((info.name, repr(exc)))
    assert not failures, failures


def test_top_level_exports():
    assert callable(repro.run_pipeline)
    assert callable(repro.build_world)
    assert repro.WorldConfig(seed=1).seed == 1
    assert isinstance(repro.__version__, str)


# The supported surface.  repro.api is the stability promise: adding a
# name there is an API commitment, removing one is a breaking change —
# either must be a conscious edit to this exact list.
API_SURFACE = [
    # entry points
    "run_pipeline",
    "run_sharded",
    "build_world",
    "__version__",
    # run configuration
    "RunConfig",
    "EngineConfig",
    "WorldConfig",
    "ParallelConfig",
    "ResolverPolicy",
    "FaultConfig",
    "ValidationMode",
    "ObsContext",
    # sharded scaling surface
    "ShardPlan",
    "ShardSpec",
    # results
    "PipelineResult",
    "ShardedRunResult",
    "AnalysisDataset",
    "SyntheticWorld",
    "DegradedCoverage",
    "LossRecord",
    "ContractReport",
    "ContractViolationError",
    # engine / persistence
    "ArtifactCache",
    "StageGraph",
    "StageNode",
]


def test_api_facade_is_pinned():
    import repro.api

    assert repro.api.__all__ == API_SURFACE
    for symbol in API_SURFACE:
        assert getattr(repro.api, symbol) is not None


def test_api_facade_matches_internal_objects():
    """The facade re-exports the same objects, not copies."""
    import repro.api

    assert repro.api.run_pipeline is repro.run_pipeline
    assert repro.api.RunConfig is repro.RunConfig
    assert repro.api.WorldConfig is repro.WorldConfig


def test_public_functions_have_docstrings():
    """Every public callable in __all__ carries a docstring."""
    undocumented = []
    for name in PACKAGES:
        mod = importlib.import_module(name)
        for symbol in getattr(mod, "__all__", []):
            obj = getattr(mod, symbol)
            if callable(obj) and not (obj.__doc__ or "").strip():
                undocumented.append(f"{name}.{symbol}")
    assert not undocumented, undocumented
