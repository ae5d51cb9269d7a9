#!/usr/bin/env python3
"""Structural lints for the simulator core package.

Six checks, all run by ``main`` (and by
``tests/hmc/test_lint_clean.py`` in tier-1 CI):

1. **No function-level imports** in ``src/repro/hmc/``.  Imports inside
   functions on the per-cycle path (``hmcsim_process_rqst`` and friends
   ran one per packet before the active-set engine hoisted them) cost a
   dict lookup and a call per execution and hide the module's real
   dependency graph.  Two idioms are exempt: imports inside a
   module-level ``__getattr__`` (PEP 562 lazy attribute access), the
   standard way to break an import cycle — never on the simulation hot
   path — and the composition root's registered optional-dependency
   factories (``ALLOWED_LAZY_FACTORIES``), which import once per
   constructed component.

2. **Registry-only construction** in the core modules (``device.py``,
   ``sim.py``).  The concrete implementations of every pipeline seam —
   crossbars, vault schedulers, flow models, topologies, memory
   backends — are registered components; the core must build them
   through :mod:`repro.hmc.composition`, never import them by name.
   The banned-name list is derived from the *live* registry, so a newly
   registered built-in is automatically covered.

3. **Oracle purity** in ``src/repro/oracle/``.  The differential oracle
   is only a trustworthy reference while it shares *no* code with the
   machinery it checks: it may use the wire format, command tables,
   address map, AMO reference semantics, and the public
   :class:`~repro.hmc.sim.HMCSim` facade (the differential runner
   drives the engine through it), but never the cycle-engine internals
   — ``device``, ``vault``, ``xbar``, ``link``, ``vector``.  An oracle
   that leans on the vault's datapath would inherit the very bugs it
   exists to find.

4. **Vector containment** in ``src/repro/``.  The numpy batch engine
   (``repro.hmc.vector``) may be named only by the composition root's
   registry factory and by the package itself; every other module
   selects it through the ``xbar`` seam key.

5. **Workload containment** in ``src/repro/``.  Concrete
   :class:`~repro.workloads.base.WorkloadFrontend` classes may be
   named only by the workload catalog
   (``repro.workloads.catalog``, the composition root of the workload
   seam); every other module resolves workloads by string through
   ``repro.workloads.registry.WORKLOADS``.  The banned-name list is
   derived from the live registry, so a newly registered frontend is
   automatically covered.

6. **One workload driver** in ``src/repro/``.  Kernel modules
   (``src/repro/host/kernels/``) hold thread programs and stats
   dataclasses and construct no ``HMCSim``, ``HostEngine`` or
   ``WindowedEngine``; the generic ``WorkloadFrontend.run`` builds the
   simulation context and one engine per wave for every workload.  No
   module outside ``workloads/base.py`` (the driver) and
   ``workloads/adapters.py`` (the kernel frontends' ``make_engine``
   hooks) may construct a host engine.

Usage:  python scripts/lint_no_function_imports.py
Exit status 0 when clean, 1 with one ``path:line`` diagnostic per
violation otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO = Path(__file__).resolve().parent.parent
LINTED = REPO / "src" / "repro" / "hmc"

#: Function names whose body may import (lazy-import idioms).
ALLOWED_FUNCTIONS = frozenset({"__getattr__"})

#: Per-file exemptions: (file name, function name) pairs whose body may
#: import.  The composition root's optional-dependency factories import
#: lazily by design — the import runs once per constructed component,
#: never on the cycle path, and converting the ImportError into a
#: ComponentError is the whole point.
ALLOWED_LAZY_FACTORIES = frozenset({("composition.py", "_vector_xbar")})


def violations_in(path: Path) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, enclosing function)`` for each bad import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = ALLOWED_FUNCTIONS | {
        func for name, func in ALLOWED_LAZY_FACTORIES if name == path.name
    }

    def visit(node: ast.AST, func: str) -> Iterator[Tuple[int, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name not in allowed:
                    yield from visit(child, child.name)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                if func:
                    yield child.lineno, func
            else:
                yield from visit(child, func)

    yield from visit(tree, "")


def run(root: Path = LINTED) -> List[str]:
    """Return one diagnostic line per violation under ``root``."""
    out = []
    for path in sorted(root.rglob("*.py")):
        shown = path.relative_to(REPO) if path.is_relative_to(REPO) else path
        for lineno, func in violations_in(path):
            out.append(
                f"{shown}:{lineno}: import inside "
                f"{func}() — hoist it to module level"
            )
    return out


#: Core modules that must compose the pipeline through the registry.
CORE_MODULES = (LINTED / "device.py", LINTED / "sim.py")


def _registered_factories() -> dict:
    """``module -> {factory names}`` for every registered component."""
    src = str(REPO / "src")
    added = src not in sys.path
    if added:
        sys.path.insert(0, src)
    try:
        import repro.hmc.composition  # noqa: F401  populates the registry

        from repro.hmc.components import COMPONENTS

        factories: dict = {}
        for seam in COMPONENTS.seams():
            for key in COMPONENTS.keys(seam):
                factory = COMPONENTS.get(seam, key)
                module = getattr(factory, "__module__", "")
                name = getattr(factory, "__name__", "")
                if module and name:
                    factories.setdefault(module, set()).add(name)
        return factories
    finally:
        if added:
            sys.path.remove(src)


def run_seam_check(core_paths=CORE_MODULES) -> List[str]:
    """Diagnostics for core modules importing concrete seam classes."""
    factories = _registered_factories()
    out: List[str] = []
    for path in core_paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        shown = path.relative_to(REPO) if path.is_relative_to(REPO) else path
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.module not in factories:
                continue
            for alias in node.names:
                if alias.name in factories[node.module]:
                    out.append(
                        f"{shown}:{node.lineno}: core module imports concrete "
                        f"seam implementation {alias.name!r} from "
                        f"{node.module} — construct it through "
                        f"repro.hmc.composition instead"
                    )
    return out


#: The oracle package, and the engine internals it must never import.
#: ``vector`` is the batch engine — exactly the kind of datapath the
#: oracle exists to check, so it is as banned as the scalar internals.
ORACLE_DIR = REPO / "src" / "repro" / "oracle"
ORACLE_BANNED_MODULES = frozenset(
    f"repro.hmc.{mod}" for mod in ("device", "vault", "xbar", "link", "vector")
)


def run_oracle_purity(
    root: Path = ORACLE_DIR, banned: frozenset = ORACLE_BANNED_MODULES
) -> List[str]:
    """Diagnostics for oracle modules importing cycle-engine internals.

    Catches ``import repro.hmc.vault``, ``from repro.hmc.vault import
    …``, and ``from repro.hmc import vault`` alike.
    """
    out: List[str] = []
    tails = {m.rsplit(".", 1)[1] for m in banned}
    for path in sorted(root.rglob("*.py")):
        shown = path.relative_to(REPO) if path.is_relative_to(REPO) else path
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            hits: List[str] = []
            if isinstance(node, ast.Import):
                hits = [
                    alias.name
                    for alias in node.names
                    if alias.name in banned
                    or any(alias.name.startswith(m + ".") for m in banned)
                ]
            elif isinstance(node, ast.ImportFrom):
                if node.module in banned or any(
                    (node.module or "").startswith(m + ".") for m in banned
                ):
                    hits = [node.module]
                elif node.module == "repro.hmc":
                    hits = [
                        f"repro.hmc.{alias.name}"
                        for alias in node.names
                        if alias.name in tails
                    ]
            for hit in hits:
                out.append(
                    f"{shown}:{node.lineno}: oracle module imports "
                    f"cycle-engine internal {hit!r} — the functional "
                    f"reference must stay independent of the datapath "
                    f"it checks"
                )
    return out


#: The vector engine package, and the only modules allowed to name it.
#: Everything else selects it through the registry key (``xbar`` =
#: ``"vector"``), so the engine stays swappable — and removable —
#: without touching any consumer.
VECTOR_PACKAGE = "repro.hmc.vector"
SRC_ROOT = REPO / "src" / "repro"
VECTOR_ALLOWED = (
    SRC_ROOT / "hmc" / "composition.py",
    SRC_ROOT / "hmc" / "vector",
)


def run_vector_containment(
    root: Path = SRC_ROOT, allowed: tuple = VECTOR_ALLOWED
) -> List[str]:
    """Diagnostics for modules naming ``repro.hmc.vector`` directly.

    Only the composition root (whose registry factory is the one
    sanctioned construction path) and the vector package itself may
    import it; everyone else goes through the component registry.
    """
    out: List[str] = []
    for path in sorted(root.rglob("*.py")):
        if any(
            path == a or (a.is_dir() and path.is_relative_to(a))
            for a in allowed
        ):
            continue
        shown = path.relative_to(REPO) if path.is_relative_to(REPO) else path
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            hits: List[str] = []
            if isinstance(node, ast.Import):
                hits = [
                    alias.name
                    for alias in node.names
                    if alias.name == VECTOR_PACKAGE
                    or alias.name.startswith(VECTOR_PACKAGE + ".")
                ]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == VECTOR_PACKAGE or module.startswith(
                    VECTOR_PACKAGE + "."
                ):
                    hits = [module]
                elif module == "repro.hmc":
                    hits = [
                        f"repro.hmc.{alias.name}"
                        for alias in node.names
                        if alias.name == "vector"
                    ]
            for hit in hits:
                out.append(
                    f"{shown}:{node.lineno}: module imports {hit!r} — "
                    f"only repro.hmc.composition (the registry factory) "
                    f"may name the vector engine; select it with "
                    f"xbar='vector' instead"
                )
    return out


#: The workload catalog — the only module allowed to import concrete
#: frontend classes.  Each class's own defining module is exempt too
#: (a definition is not an import, but re-exports within the defining
#: file stay legal).
WORKLOAD_CATALOG = SRC_ROOT / "workloads" / "catalog.py"


def _registered_workloads() -> dict:
    """``module -> {class names}`` for every registered frontend."""
    src = str(REPO / "src")
    added = src not in sys.path
    if added:
        sys.path.insert(0, src)
    try:
        from repro.workloads.registry import WORKLOADS

        classes: dict = {}
        for cls in WORKLOADS.classes().values():
            module = getattr(cls, "__module__", "")
            name = getattr(cls, "__qualname__", "").split(".")[0]
            if module and name:
                classes.setdefault(module, set()).add(name)
        return classes
    finally:
        if added:
            sys.path.remove(src)


def run_workload_containment(
    root: Path = SRC_ROOT, allowed: tuple = (WORKLOAD_CATALOG,)
) -> List[str]:
    """Diagnostics for modules importing concrete workload classes.

    Mirrors the seam check: the banned names come from the live
    workload registry, the catalog (and each class's defining module)
    is exempt, and everything else must resolve workloads by string
    through ``WORKLOADS``.
    """
    classes = _registered_workloads()
    defining_files = {
        module: REPO / "src" / Path(*module.split(".")).with_suffix(".py")
        for module in classes
    }
    out: List[str] = []
    for path in sorted(root.rglob("*.py")):
        if path in allowed:
            continue
        shown = path.relative_to(REPO) if path.is_relative_to(REPO) else path
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.module not in classes:
                continue
            if path == defining_files.get(node.module):
                continue
            for alias in node.names:
                if alias.name in classes[node.module]:
                    out.append(
                        f"{shown}:{node.lineno}: module imports concrete "
                        f"workload class {alias.name!r} from "
                        f"{node.module} — only the workload catalog may "
                        f"name frontend classes; resolve it with "
                        f"WORKLOADS.get(name) instead"
                    )
    return out


#: Kernel modules: thread programs and stats dataclasses only.
KERNELS_DIR = SRC_ROOT / "host" / "kernels"
DRIVER_CLASSES = frozenset({"HMCSim", "HostEngine", "WindowedEngine"})
#: Host engines, and the only modules that may construct them.
ENGINE_CLASSES = frozenset({"HostEngine", "WindowedEngine"})
ENGINE_BUILDERS = (
    SRC_ROOT / "workloads" / "base.py",
    SRC_ROOT / "workloads" / "adapters.py",
)


def _constructor_calls(path: Path, names: frozenset) -> List[Tuple[int, str]]:
    """``(line, class)`` for every bare (``HostEngine(sim)``) or dotted
    (``engine.HostEngine(sim)``) call of a class in ``names``."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name in names:
            calls.append((node.lineno, name))
    return calls


def run_kernel_driver_check(root: Path = KERNELS_DIR) -> List[str]:
    """Diagnostics for kernel modules constructing a sim or an engine."""
    out: List[str] = []
    for path in sorted(root.rglob("*.py")):
        shown = path.relative_to(REPO) if path.is_relative_to(REPO) else path
        for lineno, name in _constructor_calls(path, DRIVER_CLASSES):
            out.append(
                f"{shown}:{lineno}: kernel module constructs {name} — "
                f"kernels provide programs and stats; "
                f"WorkloadFrontend.run builds the sim and the engine"
            )
    return out


def run_engine_driver_check(
    root: Path = SRC_ROOT, allowed: tuple = ENGINE_BUILDERS
) -> List[str]:
    """Diagnostics for host engines constructed outside the driver."""
    out: List[str] = []
    for path in sorted(root.rglob("*.py")):
        if path in allowed:
            continue
        shown = path.relative_to(REPO) if path.is_relative_to(REPO) else path
        for lineno, name in _constructor_calls(path, ENGINE_CLASSES):
            out.append(
                f"{shown}:{lineno}: module constructs {name} — run "
                f"workloads through WORKLOADS.get(name).run; only "
                f"WorkloadFrontend.run and the frontends' make_engine "
                f"hooks build engines"
            )
    return out


def main() -> int:
    diags = (
        run()
        + run_seam_check()
        + run_oracle_purity()
        + run_vector_containment()
        + run_workload_containment()
        + run_kernel_driver_check()
        + run_engine_driver_check()
    )
    for diag in diags:
        print(diag)
    if diags:
        print(
            f"\n{len(diags)} lint violation(s) — see "
            f"scripts/lint_no_function_imports.py"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
