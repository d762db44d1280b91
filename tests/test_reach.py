"""Reach census: every module under ``src/repro`` is reached from a
product entry point, or is on :data:`ALLOWLIST` with a reason.

The entry points are the two CLIs (``python -m repro``, ``python -m
repro.harness``) and every script under ``bench/``, ``benchmarks/`` and
``examples/``.  Reach is static, read off the AST:

* ``import`` and ``from ... import`` anywhere in a reached file
  (function-local and relative ones too) reach the named module and the
  packages above it;
* a string constant that is exactly a ``repro.*`` module name reaches
  that module (``harness.benchkit._MODULES`` names the bench modules
  instead of importing them);
* a package ``__init__`` that re-exports ``from .x import name`` reaches
  ``x`` only if the ``__init__`` itself uses ``name``, or a reached file
  asks the package for ``name`` (``from pkg import name`` or
  ``pkg.name``).

A module no entry point reaches is code only tests run: it goes, or it
gets wired into a product path.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: module -> why it stays although no entry point reaches it
ALLOWLIST: dict[str, str] = {}

# (module, attribute or None): "import module", or ask it for attribute
_Request = tuple[str, str | None]


@dataclass
class _Scan:
    """What one file asks for when it runs."""
    requests: list[_Request] = field(default_factory=list)
    #: a package __init__'s top-level imports: bound name -> request
    exports: dict[str, _Request] = field(default_factory=dict)
    #: names the file reads (a re-export it reads is a real import)
    uses: set[str] = field(default_factory=set)


def _module_files(src: Path, package: str) -> dict[str, Path]:
    modules = {}
    for path in sorted((src / package).rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _scan(path: Path, name: str | None, modules: dict[str, Path],
          package: str) -> _Scan:
    """Scan one file; *name* is its module name, None for a script."""
    tree = ast.parse(path.read_text(), str(path))
    scan = _Scan()
    is_package = path.name == "__init__.py"
    top_level = {id(node) for node in tree.body}
    bindings: dict[str, str] = {}   # local name -> module it is bound to
    attributes: list[ast.Attribute] = []

    def absolute(node: ast.ImportFrom) -> str | None:
        if not node.level:
            return node.module
        if name is None:
            return None
        parts = name.split(".")
        if not is_package:
            parts = parts[:-1]
        parts = parts[:len(parts) - node.level + 1]
        return ".".join(parts + ([node.module] if node.module else []))

    def ours(module: str | None) -> bool:
        return module is not None and (
            module == package or module.startswith(package + "."))

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if not ours(alias.name):
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                bindings[bound] = alias.name if alias.asname else bound
                request = (alias.name, None)
                if is_package and id(node) in top_level:
                    scan.exports[bound] = request
                else:
                    scan.requests.append(request)
        elif isinstance(node, ast.ImportFrom):
            module = absolute(node)
            if not ours(module):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                if f"{module}.{alias.name}" in modules:
                    bindings[bound] = f"{module}.{alias.name}"
                request = (module, alias.name)
                if is_package and id(node) in top_level:
                    scan.exports[bound] = request
                else:
                    scan.requests.append(request)
        elif isinstance(node, ast.Name):
            scan.uses.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.append(node)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value in modules):
            scan.requests.append((node.value, None))

    def attribute_base(node: ast.expr) -> str | None:
        # the module an attribute chain (``pkg.sub.name``) starts from
        if isinstance(node, ast.Name):
            return bindings.get(node.id)
        if isinstance(node, ast.Attribute):
            base = attribute_base(node.value)
            if base is not None:
                scan.requests.append((base, node.attr))
                if f"{base}.{node.attr}" in modules:
                    return f"{base}.{node.attr}"
        return None

    if bindings:
        for node in attributes:
            attribute_base(node)
    return scan


def census(src: Path, roots: list[Path], package: str = "repro") -> set[str]:
    """The modules of *package* under *src* that no file in *roots*
    reaches (see the module docstring for what reaches what)."""
    modules = _module_files(src, package)
    by_path = {path.resolve(): name for name, path in modules.items()}
    scans: dict[str, _Scan] = {}
    reached: set[str] = set()
    asked: set[_Request] = set()
    queue: list[_Scan] = []

    def scan_of(module: str) -> _Scan:
        if module not in scans:
            scans[module] = _scan(modules[module], module, modules, package)
        return scans[module]

    def reach(module: str) -> None:
        parts = module.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            if prefix in modules and prefix not in reached:
                reached.add(prefix)
                queue.append(scan_of(prefix))

    def request(module: str, attr: str | None) -> None:
        if (module, attr) in asked or module not in modules:
            return
        asked.add((module, attr))
        reach(module)
        if attr is None:
            return
        if f"{module}.{attr}" in modules:
            reach(f"{module}.{attr}")
        elif attr in scan_of(module).exports:
            request(*scan_of(module).exports[attr])

    for path in roots:
        name = by_path.get(path.resolve())
        scan = _scan(path, name, modules, package)
        if name is None:
            queue.append(scan)
        else:
            scans[name] = scan
            reach(name)
    while queue:
        scan = queue.pop()
        for item in scan.requests:
            request(*item)
        for bound, item in scan.exports.items():
            if bound in scan.uses:
                request(*item)
    return set(modules) - reached


def product_roots(root: Path = ROOT) -> list[Path]:
    """The files a user runs: both CLIs and every script under
    ``bench/``, ``benchmarks/`` and ``examples/``."""
    roots = [root / "src/repro/__main__.py",
             root / "src/repro/harness/__main__.py"]
    for folder in ("bench", "benchmarks", "examples"):
        roots += sorted((root / folder).rglob("*.py"))
    return roots


@functools.cache
def _unreached() -> frozenset[str]:
    return frozenset(census(ROOT / "src", product_roots()))


def test_every_module_is_reached_or_allowlisted():
    unreached = _unreached()
    missing = sorted(unreached - set(ALLOWLIST))
    assert not missing, (
        f"no product entry point reaches {missing}: delete them, wire "
        "them into a CLI verb, experiment or bench, or add them to "
        "ALLOWLIST with a reason")


def test_allowlist_entries_are_unreached_and_have_reasons():
    unreached = _unreached()
    for module, reason in ALLOWLIST.items():
        assert reason.strip(), module
        assert module in unreached, f"{module} is reached: drop its entry"


def _write(base: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = base / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_census_on_a_synthetic_tree(tmp_path):
    _write(tmp_path / "src", {
        "pkg/__init__.py": "",
        "pkg/core.py": "from .util import helper\n",
        "pkg/util.py": "def helper(): pass\n",
        "pkg/planted.py": "X = 1\n",
        "pkg/named.py": "BENCH = 1\n",
        "pkg/table.py": "MODULES = {'a': 'pkg.named'}\n",
        "pkg/sub/__init__.py": (
            "from .used import used_fn\n"
            "from .asked import asked_fn\n"
            "from .export_only import unused_fn\n"
            "ALL = [used_fn]\n"),
        "pkg/sub/used.py": "def used_fn(): pass\n",
        "pkg/sub/asked.py": "def asked_fn(): pass\n",
        "pkg/sub/export_only.py": "def unused_fn(): pass\n",
        "pkg/lazy.py": "def f():\n    from . import late\n",
        "pkg/late.py": "",
        "pkg/dotted.py": "",
    })
    _write(tmp_path / "scripts", {
        "main.py": (
            "import pkg.core\n"
            "import pkg.table\n"
            "import pkg.lazy\n"
            "import pkg as p\n"
            "from pkg.sub import asked_fn\n"
            "p.dotted\n"),
    })
    unreached = census(tmp_path / "src", [tmp_path / "scripts/main.py"],
                       package="pkg")
    # an unimported module, and one only its package re-exports
    assert unreached == {"pkg.planted", "pkg.sub.export_only"}
