"""Documentation-quality gates.

Deliverable (e) requires doc comments on every public item; these tests
make that a property of the build rather than a review checklist:

- every module in the package has a module docstring;
- every public class and function reachable from package ``__all__``
  exports has a docstring;
- the doctest examples embedded in docstrings actually run;
- the prose in ``docs/`` makes none of the claims known to have gone
  stale.
"""

from __future__ import annotations

import doctest
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.util",
    "repro.geometry",
    "repro.mobility",
    "repro.sim",
    "repro.core",
    "repro.protocols",
    "repro.metrics",
    "repro.routing",
    "repro.analysis",
]


def _iter_modules():
    seen = set()
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        yield pkg_name, pkg
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                full = f"{pkg_name}.{info.name}"
                if full not in seen:
                    seen.add(full)
                    yield full, importlib.import_module(full)


ALL_MODULES = list(_iter_modules())


@pytest.mark.parametrize("name,module", ALL_MODULES, ids=[n for n, _ in ALL_MODULES])
def test_module_has_docstring(name, module):
    assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a module docstring"


def _public_items():
    items = []
    for name, module in ALL_MODULES:
        exported = getattr(module, "__all__", [])
        for symbol in exported:
            obj = getattr(module, symbol, None)
            if obj is None or not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", "").startswith("repro"):
                items.append((f"{name}.{symbol}", obj))
    # dedupe by object identity
    seen_ids = set()
    unique = []
    for label, obj in items:
        if id(obj) not in seen_ids:
            seen_ids.add(id(obj))
            unique.append((label, obj))
    return unique


PUBLIC_ITEMS = _public_items()


@pytest.mark.parametrize(
    "label,obj", PUBLIC_ITEMS, ids=[label for label, _ in PUBLIC_ITEMS]
)
def test_public_item_has_docstring(label, obj):
    assert inspect.getdoc(obj), f"{label} lacks a docstring"


def test_public_classes_document_their_methods():
    """Public methods of exported classes carry docstrings."""
    missing = []
    for label, obj in PUBLIC_ITEMS:
        if not inspect.isclass(obj):
            continue
        for name, member in vars(obj).items():
            if name.startswith("_") or not callable(member):
                continue
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            if not inspect.getdoc(member):
                missing.append(f"{label}.{name}")
    assert not missing, f"methods missing docstrings: {missing}"


@pytest.mark.parametrize(
    "module_name",
    [
        "repro.util.randomness",
        "repro.sim.engine",
        "repro.core.manager",
    ],
)
def test_doctests_run_clean(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{module_name}: {result.failed} doctest failures"


# --------------------------------------------------------------------- #
# prose drift: claims in docs/ that the code has stopped making true

DOCS = Path(__file__).resolve().parents[1] / "docs"

#: (pattern, why the claim is stale); patterns match across line breaks
STALE_CLAIMS = [
    (
        r"(?<!no longer\s)forces\s+`--workers\s+1`",
        "the CLI traces multi-worker runs and absorbs each worker's "
        "telemetry summary (cli._with_telemetry)",
    ),
    (
        r"all[-\s]hits",
        "packet-time redecision misses the decision cache for most owners "
        "at the paper's 10 samples/s (about ten Hellos arrive per probe)",
    ),
    (
        r"\bWorkerPool\b",
        "repro 2.0 deleted WorkerPool: campaigns run on the inprocess or "
        "queue backend",
    ),
    (
        r"\bLocalPoolBackend\b",
        "repro 2.0 deleted LocalPoolBackend: the backends are inprocess "
        "and queue",
    ),
    (
        r"""backend(=|\s+)["']?local\b""",
        "repro 2.0 removed the 'local' backend name: the backends are "
        "inprocess and queue",
    ),
]


@pytest.mark.parametrize(
    "pattern, why",
    STALE_CLAIMS,
    ids=[
        "workers-forced", "redecide-all-hits", "worker-pool",
        "local-pool-backend", "local-backend",
    ],
)
def test_docs_make_no_stale_claim(pattern, why):
    offenders = [
        path.name
        for path in sorted(DOCS.glob("*.md"))
        if re.search(pattern, path.read_text(encoding="utf-8"))
    ]
    assert not offenders, f"{offenders} still claim {pattern!r}, but {why}"
