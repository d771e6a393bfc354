"""Every module imports only names it reads, every definition of the
package is read somewhere, and the package root resolves its exports.

No lint tool is installed, so this scans the syntax trees with `ast`:
a name bound by an import statement in a module of `src/horoshadow`,
`scripts/` or `tests/` must be read somewhere in the same module; and
each top-level function and class of the package's modules (its root
`__init__.py`, whose module hooks the import system reads, aside), and
each method and property of their classes (as an attribute, dunders
aside), must be read in `src/`, `scripts/` or `bench/` outside its own
definition.  Tests do not count as readers: a definition that only tests
read belongs in the tests, as an oracle.
"""

import ast
import importlib
from pathlib import Path

import pytest

import horoshadow
from horoshadow import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "horoshadow").glob("*.py")
                 if p.name != "__init__.py")
MODULES = sorted(PACKAGE + [ROOT / "src" / "horoshadow" / "__init__.py"]
                 + list((ROOT / "scripts").glob("*.py")) + list((ROOT / "tests").glob("*.py")))
READERS = sorted((ROOT / "src").rglob("*.py")) + sorted(
    p for d in ("scripts", "bench") for p in (ROOT / d).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


def unread_definitions(defining: dict, readers: dict) -> list[str]:
    """Top-level functions and classes of the modules in `defining`
    ({module name: source}) that no module of `readers` (same shape)
    reads, as a bare name or as an attribute, and methods and properties
    of those classes (dunders aside) that none reads as an attribute,
    outside their own definition."""
    reads, attrs = {}, {}
    for module, source in readers.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                name = node.id
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                name = node.attr
                attrs.setdefault(name, []).append((module, node.lineno))
            else:
                continue
            reads.setdefault(name, []).append((module, node.lineno))
    unread = []
    for module, source in defining.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node, node.name, reads)]
            if isinstance(node, ast.ClassDef):
                defs += [(m, f"{node.name}.{m.name}", attrs) for m in node.body
                         if isinstance(m, ast.FunctionDef)
                         and not (m.name.startswith("__") and m.name.endswith("__"))]
            for d, label, where in defs:
                first = min([d.lineno] + [dec.lineno for dec in d.decorator_list])
                inside = range(first, d.end_lineno + 1)
                if all(m == module and line in inside for m, line in where.get(d.name, [])):
                    unread.append(f"{module}:{d.lineno}: {label}")
    return unread


def test_scanner_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "from fractions import Fraction as F\n"
              "from typing import Optional\n"
              "def f(x: Optional[int]):\n"
              "    return math.pi\n")
    assert unused_imports(source) == ["line 2: os", "line 3: F"]


def test_definition_scanner_flags_only_unread_definitions():
    lib = ("def used_by_other(): pass\n"
           "def used_here(): pass\n"
           "def recursive(n):\n"
           "    return recursive(n - 1)\n"
           "class Annotated: pass\n"
           "class Unread:\n"
           "    def method(self): return Unread()\n"
           "def attribute_read(): pass\n"
           "x = used_here()\n"
           "class Methods:\n"
           "    def __init__(self): pass\n"
           "    def read_as_attribute(self): pass\n"
           "    def read_as_name(self): pass\n"
           "    @property\n"
           "    def recursive_property(self): return self.recursive_property\n"
           "    def read_inside(self): return self.read_as_attribute()\n")
    app = ("from lib import used_by_other\n"
           "import lib\n"
           "def g(a: 'str', b: Annotated): return used_by_other(), lib.attribute_read\n"
           "recursive = 1\n"
           "read_as_name = Methods().read_inside\n")
    assert unread_definitions({"lib": lib}, {"lib": lib, "app": app}) == \
        ["lib:3: recursive", "lib:6: Unread", "lib:7: Unread.method",
         "lib:13: Methods.read_as_name", "lib:15: Methods.recursive_property"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_no_unread_definitions():
    name = lambda p: str(p.relative_to(ROOT))  # noqa: E731
    assert unread_definitions({name(p): p.read_text() for p in PACKAGE},
                              {name(p): p.read_text() for p in READERS}) == []


#: every name the package root exported when it imported each module,
#: by module, but `uncover`: that name is now the submodule
ROOT_EXPORTS = {
    "halfspace": ["ArcGeodesic", "AtInfinityHoroball", "Geodesic", "Horoball", "Point",
                  "TangentHoroball", "VerticalGeodesic", "geodesic_through",
                  "penetration_depth", "point_to_horoball_dist"],
    "heisenberg": ["HeisPoint", "cc_dist", "complex_hyperbolic_shrink_time", "cygan_dist",
                   "dilate", "extend_sphere_cc", "heis_mul", "heisenberg_space"],
    "numeric": ["SHARP_SCALE", "CertificateError"],
    "packings": ["HoroballFamily", "extremal", "farey", "geometric", "random_disjoint",
                 "validate_disjoint"],
    "rays": ["AvoidanceReport", "biinfinite_line", "glue_constants", "ray_from_point",
             "verify_avoidance"],
    "sharp2d": ["dioph_solutions", "sharp_shrink_time", "solve_2d", "step_2d"],
    "sharpnd": ["maximal_annulus_ball", "solve_hnr", "step_hnr"],
    "trees": ["MetricTree", "TreeFamily", "TreeHoroball", "covering_family", "greedy_ray",
              "three_regular_tree"],
    "uncover": ["AnnulusBall", "BallFamily", "NestedWitness", "UncoverSpace", "canonical_ball",
                "euclidean_space", "generic_shrink_time", "max_scale_for_load", "refine_step",
                "safe_scale", "uncover_two"],
}


@pytest.mark.parametrize("module", ROOT_EXPORTS)
def test_package_root_reads_each_export_from_its_module(module):
    mod = importlib.import_module(f"horoshadow.{module}")
    for name in ROOT_EXPORTS[module]:
        assert getattr(horoshadow, name) is getattr(mod, name), name
        assert name in dir(horoshadow), name
        # not cached, so a binding patched in the module is the one read
        assert name not in vars(horoshadow), name


def test_package_root_exports_nothing_else():
    assert sorted(horoshadow.__all__) == sorted(n for names in ROOT_EXPORTS.values()
                                                for n in names)
    assert horoshadow.uncover is importlib.import_module("horoshadow.uncover")
    for owner in (horoshadow, cli):
        with pytest.raises(AttributeError, match=f"module '{owner.__name__}' has no attribute"):
            owner.no_such_name  # noqa: B018


def test_cli_reads_the_exports_from_their_modules(monkeypatch):
    from horoshadow import sharp2d

    assert cli.solve_2d is sharp2d.solve_2d and "solve_2d" not in vars(cli)
    patched = object()
    monkeypatch.setattr(sharp2d, "solve_2d", patched)
    assert cli.solve_2d is horoshadow.solve_2d is patched
