"""Module seams: no particlevi module reaches into another one's private names.

Every ``src/particlevi/*.py`` is parsed with ``ast``.  A module may not
import an underscore-prefixed name from another particlevi module, nor read
``<module>._name`` through a module alias such as ``fl._helper``.  Dunder
names (``__version__``) are public.

The estimator modules (filters, couplings, objectives) never name a model
family: only ``models`` decides what a family is, and they go through the
rows its builders return.  Within ``models`` the three builders forward to
the run's bound model (``models.bind``) and name no family either.

No module imports a thread pool or threads: every run goes on the
calling thread.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "particlevi"
PACKAGE = "particlevi"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node):
    """'a.b.c' for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def seam_violations(source: str, module: str) -> list:
    """(line, text) for every private cross-module access in one module's source."""
    tree = ast.parse(source)
    aliases = {}  # local name -> particlevi module it binds
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == PACKAGE or a.name.startswith(PACKAGE + "."):
                    if a.asname:
                        aliases[a.asname] = a.name
                    else:
                        aliases[PACKAGE] = PACKAGE
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == PACKAGE:
                for a in node.names:
                    target = f"{PACKAGE}.{a.name}"
                    if _private(a.name):
                        found.append((node.lineno, f"from {node.module} import {a.name}"))
                    aliases[a.asname or a.name] = target
            elif node.module.startswith(PACKAGE + "."):
                for a in node.names:
                    if node.module != module and _private(a.name):
                        found.append((node.lineno, f"from {node.module} import {a.name}"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = _dotted(node.value)
            if base is None:
                continue
            head, _, rest = base.partition(".")
            if head not in aliases:
                continue
            target = aliases[head] + ("." + rest if rest else "")
            if target != module and target.startswith(PACKAGE):
                found.append((node.lineno, f"{base}.{node.attr}"))
    return sorted(found)


def test_checker_catches_both_forms():
    source = (
        "import particlevi.filters as fl\n"
        "from particlevi import models as mo\n"
        "from particlevi.filters import ys_of, _helper\n"
        "import particlevi.autodiff\n"
        "a = fl._np_thing(1)\n"
        "b = mo.Dataset\n"
        "c = particlevi.autodiff._ACTIVE\n"
        "d = mo.__name__\n"
        "e = self._private\n"
    )
    assert seam_violations(source, "particlevi.couplings") == [
        (3, "from particlevi.filters import _helper"),
        (5, "fl._np_thing"),
        (7, "particlevi.autodiff._ACTIVE"),
    ]


def test_own_private_names_are_allowed():
    source = "import particlevi.filters as fl\nfrom particlevi.filters import _x\nfl._y\n"
    assert seam_violations(source, "particlevi.filters") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_access(path):
    module = PACKAGE if path.stem == "__init__" else f"{PACKAGE}.{path.stem}"
    assert seam_violations(path.read_text(), module) == []


FAMILY = re.compile(r"isinstance\(model\b|\bmo\.(?:Lgssm|StochVol|Dmm|DiscreteHmm)\b")


@pytest.mark.parametrize("name", ["filters.py", "couplings.py", "objectives.py"])
def test_estimators_never_name_a_model_family(name):
    lines = (SRC / name).read_text().splitlines()
    assert [(i, line.strip()) for i, line in enumerate(lines, 1) if FAMILY.search(line)] == []


BUILDERS = ("transition_build_many", "emission_logpdf_rows", "proposal_build_many")
FAMILY_NAME = re.compile(r"isinstance\(model\b|\b(?:Lgssm|StochVol|Dmm|DiscreteHmm)\b")


def test_builders_dispatch_on_nothing():
    tree = ast.parse((SRC / "models.py").read_text())
    bodies = {
        node.name: "\n".join(ast.unparse(stmt) for stmt in node.body if not isinstance(stmt, ast.Expr))
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in BUILDERS
    }
    assert sorted(bodies) == sorted(BUILDERS)
    assert {name: FAMILY_NAME.findall(body) for name, body in bodies.items()} == {name: [] for name in BUILDERS}


THREAD_MODULES = ("concurrent", "threading")


def thread_imports(source: str) -> list:
    """(line, module) for every import of concurrent.futures or threading."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.split(".")[0] in THREAD_MODULES]
    return found


def test_thread_import_checker_catches_every_form():
    source = (
        "import concurrent.futures\nfrom concurrent.futures import ThreadPoolExecutor\n"
        "from concurrent import futures\nimport threading as th\nfrom threading import Thread\n"
        "import numpy\nfrom particlevi.rng import RngStream\n"
    )
    assert [line for line, _ in thread_imports(source)] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_thread_pool_or_threads(path):
    assert thread_imports(path.read_text()) == []
