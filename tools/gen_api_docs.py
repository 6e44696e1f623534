"""Generate docs/API.md from the package's NumPy-style docstrings.

Run from the repository root::

    PYTHONPATH=src python tools/gen_api_docs.py           # regenerate
    PYTHONPATH=src python tools/gen_api_docs.py --check   # coverage gate

The generator walks each module's ``__all__``, emits the signature and
verbatim docstring of every public class, function and method, and
writes the result to ``docs/API.md``.

``--check`` is the docstring-coverage gate wired into CI: it fails
(exit 1) listing every public module, class, function, method or
property that lacks a docstring, without touching ``docs/API.md``.
The default (generate) mode runs the same gate after writing, so a
regeneration can never silently ship ``(undocumented)`` entries.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MODULES = [
    "repro",
    "repro.api",
    "repro.serve",
    "repro.gateway",
    "repro.ticketstore",
    "repro.faults",
    "repro.spec",
    "repro.core",
    "repro.engine",
    "repro.budget",
    "repro.geometry",
    "repro.stats",
    "repro.kernels",
    "repro.fingerprint",
    "repro.index",
    "repro.baselines",
    "repro.datasets",
    "repro.forest",
    "repro.viz",
]


def _doc(obj) -> str:
    doc = inspect.getdoc(obj)
    return doc.strip() if doc else "(undocumented)"


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _emit_callable(name: str, obj, lines: list, level: int = 3) -> None:
    lines.append(f"{'#' * level} `{name}{_signature(obj)}`\n")
    lines.append(_doc(obj) + "\n")


def _public_members(cls) -> list:
    """``(name, member)`` pairs defined on ``cls`` or inherited from a
    private base class, whose members the docs show nowhere else."""
    members: dict = {}
    for klass in reversed(cls.__mro__):
        if klass is cls or klass.__name__.startswith("_"):
            members.update(vars(klass))
    return sorted(members.items())


def _emit_class(name: str, cls, lines: list) -> None:
    lines.append(f"### `{name}`\n")
    lines.append(_doc(cls) + "\n")
    for attr, member in _public_members(cls):
        if attr.startswith("_"):
            continue
        if isinstance(member, property):
            lines.append(f"- **`.{attr}`** (property) — ")
            lines.append(textwrap.indent(_doc(member), "  ").strip() + "\n")
        elif inspect.isfunction(member):
            _emit_callable(f"{name}.{attr}", member, lines, level=4)
        elif isinstance(member, classmethod):
            _emit_callable(
                f"{name}.{attr}", member.__func__, lines, level=4
            )


def iter_public(mod_name: str):
    """Yield ``(qualified_name, object)`` for every documented surface
    of a module: the module itself, each ``__all__`` entry, and every
    public method/property/classmethod of public classes."""
    module = __import__(mod_name, fromlist=["__all__"])
    yield mod_name, module
    if mod_name == "repro":  # façade: re-exports documented at source
        return
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj):
            yield f"{mod_name}.{name}", obj
            for attr, member in _public_members(obj):
                if attr.startswith("_"):
                    continue
                if isinstance(member, property):
                    yield f"{mod_name}.{name}.{attr}", member
                elif inspect.isfunction(member):
                    yield f"{mod_name}.{name}.{attr}", member
                elif isinstance(member, classmethod):
                    yield f"{mod_name}.{name}.{attr}", member.__func__
        elif inspect.isfunction(obj):
            yield f"{mod_name}.{name}", obj
        # Registries (dicts) and constants carry no docstring slot;
        # the generator documents their keys/values instead.


def missing_docstrings(modules: list | None = None) -> list:
    """Every public API surface lacking a docstring.

    Parameters
    ----------
    modules : list of str, optional
        Module names to scan; defaults to :data:`MODULES`.

    Returns
    -------
    list of str
        Qualified names with no (or empty) docstring.
    """
    missing = []
    for mod_name in modules or MODULES:
        for qualname, obj in iter_public(mod_name):
            doc = inspect.getdoc(obj)
            if not (doc and doc.strip()):
                missing.append(qualname)
    return missing


def check(modules: list | None = None) -> int:
    """Run the docstring-coverage gate; print offenders.

    Returns
    -------
    int
        Process exit code (0 = full coverage).
    """
    missing = missing_docstrings(modules)
    if missing:
        print("public API without docstrings:")
        for name in missing:
            print(f"  {name}")
        print(f"{len(missing)} undocumented (need 0)")
        return 1
    total = sum(1 for m in MODULES for _ in iter_public(m))
    print(f"docstring coverage: {total}/{total} public surfaces (100%)")
    return 0


def generate() -> None:
    """Regenerate ``docs/API.md`` from the live docstrings."""
    lines = [
        "# repro API reference\n",
        "_Generated from docstrings by `tools/gen_api_docs.py`;"
        " do not edit by hand._\n",
    ]
    for mod_name in MODULES:
        module = __import__(mod_name, fromlist=["__all__"])
        lines.append(f"\n## `{mod_name}`\n")
        lines.append((inspect.getdoc(module) or "").strip() + "\n")
        if mod_name == "repro":
            exported = ", ".join(
                f"`{n}`" for n in module.__all__ if n != "__version__"
            )
            lines.append(f"Top-level exports: {exported}\n")
            continue
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                _emit_class(name, obj, lines)
            elif callable(obj):
                _emit_callable(name, obj, lines)
            elif isinstance(obj, dict):
                # Registries hold live objects whose reprs carry memory
                # addresses; document the keys, which are the API.
                lines.append(f"### `{name}`\n")
                keys = ", ".join(f"`{key!r}`" for key in obj)
                lines.append(f"Registry with entries: {keys}\n")
            else:
                lines.append(f"### `{name}`\n")
                lines.append(f"Constant: `{obj!r}`\n")
    out = ROOT / "docs" / "API.md"
    out.parent.mkdir(exist_ok=True)
    out.write_text("\n".join(lines))
    print(f"wrote {out} ({len(lines)} blocks)")


def main() -> None:
    """CLI entry point: generate (default) or ``--check`` only."""
    parser = argparse.ArgumentParser(
        description="Generate docs/API.md and gate public docstring "
        "coverage."
    )
    parser.add_argument(
        "--check", action="store_true",
        help="only run the docstring-coverage gate (no file writes)",
    )
    args = parser.parse_args()
    if args.check:
        sys.exit(check())
    generate()
    sys.exit(check())


if __name__ == "__main__":
    main()
