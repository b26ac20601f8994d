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

No module names numpy's ``logaddexp`` or scipy's ``logsumexp``: the one
numpy logsumexp is ``autodiff.np_logsumexp``.

One place records op nodes: a tape's node list is appended to only in
``autodiff.custom_vjp`` (every op) and ``autodiff.leaf``.

Verification stays off the filter path: no module a filter run or a
training step loads imports ``checks`` or ``cli``, and ``checks`` does not
import ``cli``.

One lifting path: in ``objectives`` only ``pack_params`` and
``apply_params`` spell the "phi." and "theta." parameter namespace.
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


def foreign_logsumexps(source: str) -> list:
    """(line, text) for every ``logaddexp`` and every scipy ``logsumexp`` a module names."""
    tree = ast.parse(source)
    scipy_names = set()  # local names bound to scipy modules or their members
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            scipy_names.update(a.asname or "scipy" for a in node.names if a.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "scipy":
            for a in node.names:
                if a.name == "logsumexp":
                    found.append((node.lineno, f"from {node.module} import logsumexp"))
                scipy_names.add(a.asname or a.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "logaddexp":
            found.append((node.lineno, "logaddexp"))
        elif isinstance(node, ast.Attribute) and node.attr == "logaddexp":
            found.append((node.lineno, f"{_dotted(node.value)}.logaddexp"))
        elif isinstance(node, ast.Attribute) and node.attr == "logsumexp":
            base = _dotted(node.value) or ""
            if base.split(".")[0] in scipy_names:
                found.append((node.lineno, f"{base}.logsumexp"))
    return sorted(found)


def test_logsumexp_checker_catches_every_form():
    source = (
        "import numpy as np\nimport scipy.special\nfrom scipy import special as sp\n"
        "from scipy.special import logsumexp\nfrom numpy import logaddexp\n"
        "a = np.logaddexp.reduce(x)\nb = np.logaddexp(x, y)\nc = scipy.special.logsumexp(x)\n"
        "d = sp.logsumexp(x)\ne = ad.logsumexp(x)\nf = ad.np_logsumexp(x)\ng = logaddexp(x, y)\n"
    )
    assert [line for line, _ in foreign_logsumexps(source)] == [4, 6, 7, 8, 9, 12]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_numpy_logsumexp(path):
    assert foreign_logsumexps(path.read_text()) == []


NODE_RECORDERS = ("autodiff.custom_vjp", "autodiff.leaf")


def node_appends(source: str) -> list:
    """(line, enclosing function path) for every ``<x>.nodes.append(...)`` and ``nodes.append(...)`` call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and child.func.attr == "append":
                target = child.func.value
                if (isinstance(target, ast.Attribute) and target.attr == "nodes") or (
                    isinstance(target, ast.Name) and target.id == "nodes"
                ):
                    found.append((child.lineno, ".".join(scope)))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + (child.name,) if named else scope)

    visit(ast.parse(source), ())
    return found


def test_node_append_checker_names_the_enclosing_function():
    source = (
        "def f():\n    tape.nodes.append(1)\n\n    def g():\n        nodes.append(2)\n"
        "class V:\n    def m(self):\n        self.tape.nodes.append(3)\n        rows.append(4)\n"
    )
    assert node_appends(source) == [(2, "f"), (5, "f.g"), (8, "V.m")]


def test_one_place_records_op_nodes():
    found = sorted(
        f"{path.stem}.{where}" for path in sorted(SRC.glob("*.py")) for _, where in node_appends(path.read_text())
    )
    assert found == sorted(NODE_RECORDERS)


def package_imports(source: str) -> list:
    """(line, module) for every particlevi module or name a source imports, as ``particlevi.<name>``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith(PACKAGE + ".")]
        elif isinstance(node, ast.ImportFrom) and node.level <= 1:
            module = node.module or ""
            if node.level:  # relative to the package
                module = f"{PACKAGE}.{module}" if module else PACKAGE
            if module == PACKAGE:
                found += [(node.lineno, f"{PACKAGE}.{a.name}") for a in node.names]
            elif module.startswith(PACKAGE + "."):
                found.append((node.lineno, module))
    return sorted(found)


def test_package_import_checker_catches_every_form():
    source = (
        "import particlevi.checks\nimport particlevi.cli as c\nfrom particlevi import checks as ck, models\n"
        "from particlevi.checks import run\nfrom .cli import main\nfrom . import checks\nimport numpy\n"
        "def f():\n    from particlevi import cli\n"
    )
    assert package_imports(source) == [
        (1, "particlevi.checks"), (2, "particlevi.cli"), (3, "particlevi.checks"), (3, "particlevi.models"),
        (4, "particlevi.checks"), (5, "particlevi.cli"), (6, "particlevi.checks"), (9, "particlevi.cli"),
    ]


FILTER_PATH = ("autodiff", "rng", "distributions", "models", "filters", "couplings", "objectives")
VERIFY_SEAMS = {**{name: ("checks", "cli") for name in FILTER_PATH}, "checks": ("cli",)}


@pytest.mark.parametrize("name", sorted(VERIFY_SEAMS))
def test_verification_stays_off_the_filter_path(name):
    forbidden = {f"{PACKAGE}.{module}" for module in VERIFY_SEAMS[name]}
    assert [hit for hit in package_imports((SRC / f"{name}.py").read_text()) if hit[1] in forbidden] == []


NAMESPACE = ("phi.", "theta.")


def namespace_literals(source: str) -> list:
    """(line, enclosing function) of every string literal that holds "phi." or "theta."; docstrings are prose."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant):
                continue
            if isinstance(child, ast.Constant) and isinstance(child.value, str):
                if any(prefix in child.value for prefix in NAMESPACE):
                    found.append((child.lineno, scope))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, child.name if named else scope)

    visit(ast.parse(source), "")
    return found


def test_namespace_checker_skips_docstrings_and_sees_every_literal():
    source = (
        '"""The "phi.mu" name."""\nP = "phi."\n\ndef f(k):\n    """theta. prose"""\n'
        '    return {"theta." + k: 1, f"phi.{k}": 2, "phi": 3}\n'
    )
    assert namespace_literals(source) == [(2, ""), (6, "f"), (6, "f")]


def test_one_lifting_path_spells_the_parameter_namespace():
    found = namespace_literals((SRC / "objectives.py").read_text())
    assert sorted({scope for _, scope in found}) == ["apply_params", "pack_params"]
