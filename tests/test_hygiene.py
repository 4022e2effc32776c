"""Static checks on the source and test trees, with the standard library's ast only.

- No assert statement in the package: its checks must survive python -O.
- No unused module-level import in the package or in the tests.
- Every module-level private function or class of the package (a _name,
  not a __dunder__) is read somewhere in the package, so a helper does not
  outlive its last caller.
- So is every module-level public function or class, as a name, an
  attribute, an imported name or a string equal to it (cli.KINDS names its
  builders so), but for the entry points ENTRY_POINTS lists, each with its
  reader outside the package.  Code that serves only the tests' oracles
  lives in the tests (tests/oracles.py).
- The package has one Horner loop, specfun.horner_fixed: no source file
  under it names mpmath's polyval.
- The package has one quadrature rule, circle.adaptive_quad: no source
  file under it names mpmath's quad, quadts or quadgl, or imports from
  mpmath.calculus.quadrature, where its Gauss-Legendre rule lives.
- mpmath's besseli serves specfun.bessel_i alone: nothing else in the
  package names it, so Wright's Bessel ladder is seeded from its own
  generating function and not from Bessel values.
- Every functools cache in the package is bounded: no lru_cache with
  maxsize=None and no functools.cache, which is the same thing.
- Working precision is set in one module, specfun: by guarded, by
  pay_for_loss for each pass, and by _wright_sum for its fixed-point
  constants.  No other module uses mpmath's workprec, workdps, extraprec
  or extradps, or assigns mp.prec or mp.dps.
- Only public entry points are guarded, so a value is rounded once: no
  function named _name in the package is decorated with guarded.
- A circle sample is fixed point from its point to its value, at the bits
  its caller passes: no private function in circle.py, nor one nested in
  it, reads mp.prec or mp.dps or names mpmath's expjpi.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oepartitions"
TESTS = ROOT / "tests"
PRECISION_CONTEXTS = {"workprec", "workdps", "extraprec", "extradps"}
PRECISION_OWNERS = {"specfun.py"}
MPMATH_QUADRATURES = {"quad", "quadts", "quadgl"}
QUADRATURE_MODULE = "mpmath.calculus.quadrature"
# public package code that no package code reads, and what reads it instead
ENTRY_POINTS = {
    "oebar_eval": "the benchmark",
    "minor_arc_integral": "the benchmark",
    "phi_class_sum": "the benchmark",
    "classical_identity_suite": "the benchmark",
    "qpochhammer": "the tests' dense reference",
    "neg_pochhammer": "the tests' dense reference",
    "root_R": "the paper's Tauberian derivation",
    "zagier_log_expansion": "the paper's Tauberian derivation",
    "ingham_transfer": "the paper's Tauberian derivation",
    "halve_argument": "the paper's Tauberian derivation",
}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _unused_imports(tree):
    """Names bound by a top-level import and never read as a name."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in read}


def _private_definitions(tree):
    """Top-level functions and classes named _name (not __dunder__), by line."""
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
    }


def _names_read(tree):
    """Names read as a bare name or as an attribute anywhere in the tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _public_definitions(tree):
    """Top-level functions and classes not named _name, by line."""
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def _names_referred_to(tree):
    """_names_read, with the names a from-import binds and every string constant."""
    names = _names_read(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _unbounded_caches(tree):
    """Lines that call lru_cache with maxsize None, or import or name functools' cache."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if name == "lru_cache" and any(
                isinstance(size, ast.Constant) and size.value is None for size in sizes
            ):
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                lines.add(node.lineno)
    return sorted(lines)


def _mpmath_names(tree, names, inside=()):
    """Lines that name one of names, as a name, an attribute or an imported
    name, outside the functions (at any depth) named in inside."""
    skip = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and func.name in inside
        for node in ast.walk(func)
    }
    lines = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and node.id in names:
            lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in names:
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name in names for alias in node.names):
                lines.add(node.lineno)
    return sorted(lines)


def _quadrature_names(tree):
    """Lines that name one of mpmath's quadratures, as a name, an attribute
    or an imported name, or that import from mpmath.calculus.quadrature,
    the module behind them and behind its rule classes."""
    imports = {
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and (node.module or "").startswith(QUADRATURE_MODULE))
        or (isinstance(node, ast.Import)
            and any(alias.name.startswith(QUADRATURE_MODULE) for alias in node.names))
    }
    return sorted(imports.union(_mpmath_names(tree, MPMATH_QUADRATURES)))


def _is_mp_precision(node):
    """node is the attribute mp.prec or mp.dps (also as mpmath.mp.prec)."""
    if not (isinstance(node, ast.Attribute) and node.attr in ("prec", "dps")):
        return False
    owner = node.value
    return (isinstance(owner, ast.Name) and owner.id == "mp") or (
        isinstance(owner, ast.Attribute) and owner.attr == "mp"
    )


def _precision_settings(tree):
    """Lines that import or use a precision context manager, or assign mp.prec / mp.dps."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name in PRECISION_CONTEXTS for alias in node.names):
                lines.add(node.lineno)
        elif isinstance(node, ast.Name) and node.id in PRECISION_CONTEXTS:
            lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in PRECISION_CONTEXTS:
            lines.add(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(_is_mp_precision(t) for target in targets for t in ast.walk(target)):
                lines.add(node.lineno)
    return sorted(lines)


def _ambient_reads(tree):
    """(function, line) where a top-level function named _name, or one
    nested in it, reads mp.prec or mp.dps or names expjpi."""
    return sorted(
        (func.name, node.lineno)
        for func in tree.body
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and func.name.startswith("_")
        for node in ast.walk(func)
        if _is_mp_precision(node) or getattr(node, "attr", getattr(node, "id", None)) == "expjpi"
    )


def _guarded_helpers(tree):
    """Functions named _name, at any depth, decorated with guarded (as a
    name or as an attribute such as specfun.guarded), by line."""
    return {
        node.name: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and any(getattr(d, "id", getattr(d, "attr", None)) == "guarded"
                for d in node.decorator_list)
    }


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_has_no_assert(path):
    lines = [n.lineno for n in ast.walk(_tree(path)) if isinstance(n, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines} is stripped by python -O"


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_no_unused_module_imports(path):
    unused = _unused_imports(_tree(path))
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_scan_sees_an_unused_and_a_used_import():
    tree = ast.parse("import os\nimport sys\nfrom a.b import c as d\nsys.exit(d)\n")
    assert _unused_imports(tree) == {"os": 1}


def test_every_private_helper_has_a_reader():
    trees = {path.name: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(_names_read, trees.values()))
    unread = {
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    }
    assert not unread, f"private helpers nothing in the package reads: {sorted(unread)}"


def test_the_scan_sees_an_unread_and_a_read_helper():
    tree = ast.parse(
        "def _used(): pass\n"
        "def _unused(): pass\n"
        "class _Gone: pass\n"
        "def __getattr__(name): pass\n"
        "def public(): return _used()\n"
        "def _method_named(): pass\n"
        "obj._method_named\n"
        "_stored = 1\n"
    )
    assert _private_definitions(tree) == {
        "_used": 1, "_unused": 2, "_Gone": 3, "_method_named": 6,
    }
    unread = set(_private_definitions(tree)) - _names_read(tree)
    assert unread == {"_unused", "_Gone"}


def test_every_public_definition_has_a_reader():
    trees = {path.name: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(_names_referred_to, trees.values()))
    defined = {
        name: f"{module}:{line}"
        for module, tree in trees.items()
        for name, line in _public_definitions(tree).items()
    }
    unread = sorted(f"{where} {name}" for name, where in defined.items()
                    if name not in read and name not in ENTRY_POINTS)
    assert not unread, (f"public code nothing in the package reads: {unread}; delete it, "
                        "move a test oracle to tests/oracles.py, or list a real entry point")
    stale = sorted(name for name in ENTRY_POINTS if name not in defined or name in read)
    assert not stale, f"ENTRY_POINTS names code that is gone or that the package reads: {stale}"


def test_the_scan_sees_names_attributes_imports_and_strings():
    tree = ast.parse(
        "from .series import imported\n"
        "def called(): pass\n"
        "def as_attribute(): pass\n"
        "def in_a_string(): pass\n"
        "def unread(): pass\n"
        "class Unread: pass\n"
        "def _private(): pass\n"
        "KINDS = {'x': Kind('in_a_string')}\n"
        "def main():\n"
        "    return called(), module.as_attribute\n"
    )
    assert _public_definitions(tree) == {
        "called": 2, "as_attribute": 3, "in_a_string": 4, "unread": 5, "Unread": 6, "main": 9,
    }
    read = _names_referred_to(tree)
    assert "imported" in read
    assert set(_public_definitions(tree)) - read == {"unread", "Unread", "main"}


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name not in PRECISION_OWNERS),
    ids=lambda p: p.name,
)
def test_precision_is_set_only_by_the_guard(path):
    lines = _precision_settings(_tree(path))
    assert not lines, f"{path.name}: sets working precision at lines {lines}; use specfun.guarded"


def test_the_scan_sees_precision_contexts_and_assignments():
    tree = ast.parse(
        "from mpmath import mp, workprec\n"
        "import mpmath\n"
        "mp.prec = 80\n"
        "mpmath.mp.dps += 5\n"
        "with mp.extraprec(10):\n"
        "    x = mp.prec\n"
        "a, mp.dps = 1, 2\n"
    )
    assert _precision_settings(tree) == [1, 3, 4, 5, 7]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_public_entry_points_are_guarded(path):
    helpers = _guarded_helpers(_tree(path))
    assert not helpers, (f"{path.name}: guarded private helpers {helpers}; a helper "
                         "computes at its caller's precision and the entry point rounds once")


def test_the_scan_sees_guarded_helpers_and_not_public_ones():
    tree = ast.parse(
        "@guarded\n"
        "def _a(prec): pass\n"
        "@specfun.guarded\n"
        "def _b(prec): pass\n"
        "@guarded\n"
        "def public(prec): pass\n"
        "def _plain(prec): pass\n"
        "class K:\n"
        "    @guarded\n"
        "    def _method(self, prec): pass\n"
        "@lru_cache(maxsize=4)\n"
        "def _cached(prec): pass\n"
    )
    assert _guarded_helpers(tree) == {"_a": 2, "_b": 4, "_method": 10}


def test_circle_helpers_read_no_ambient_precision():
    hits = _ambient_reads(_tree(PACKAGE / "circle.py"))
    assert not hits, (f"circle.py: private functions read mp.prec or call expjpi at {hits}; "
                      "compute in fixed point at the bits the caller passes")


def test_the_scan_sees_ambient_reads_in_private_functions_only():
    tree = ast.parse(
        "def _a(x):\n"
        "    return mp.prec + x\n"
        "def _b(x):\n"
        "    def inner():\n"
        "        return mp.expjpi(x)\n"
        "    return inner\n"
        "def public(x):\n"
        "    return mp.expjpi(x) * mp.prec\n"
        "def _c(prec):\n"
        "    digits = mpmath.mp.dps\n"
        "    return expjpi(digits, prec)\n"
        "def _d(prec):\n"
        "    return _turn(prec)\n"
    )
    assert _ambient_reads(tree) == [("_a", 2), ("_b", 5), ("_c", 10), ("_c", 11)]


def test_one_horner_loop():
    hits = [
        f"{path.relative_to(PACKAGE)}:{number}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "polyval" in line
    ]
    assert not hits, f"polyval at {hits}: sum series with specfun.horner_fixed"


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_one_quadrature_rule(path):
    lines = _quadrature_names(_tree(path))
    assert not lines, (f"{path.name}: mpmath quadrature named at lines {lines}; "
                       "integrate with circle.adaptive_quad")


def test_the_scan_sees_mpmath_quadratures_and_not_the_package_rule():
    tree = ast.parse(
        "from mpmath import mp, quadgl\n"
        "mp.quad(f, [0, 1])\n"
        "mpmath.quadts(f, [0, 1])\n"
        "quad(f, [0, 1])\n"
        "adaptive_quad(f, 0, 1)\n"
        "from mpmath.calculus.quadrature import GaussLegendre\n"
        "raise QuadratureError('x')\n"
        "import mpmath.calculus.quadrature as rules\n"
    )
    assert _quadrature_names(tree) == [1, 2, 3, 4, 6, 8]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_besseli_serves_bessel_i_alone(path):
    inside = {"bessel_i"} if path.name == "specfun.py" else set()
    lines = _mpmath_names(_tree(path), {"besseli"}, inside)
    assert not lines, (f"{path.name}: mpmath's besseli named at lines {lines}; call "
                       "specfun.bessel_i, or build a Bessel ladder from its generating function")


def test_the_scan_sees_besseli_outside_bessel_i_only():
    tree = ast.parse(
        "from mpmath import besseli\n"
        "def bessel_i(order, x):\n"
        "    return mp.besseli(order, x)\n"
        "def _wright_sum(u):\n"
        "    top = mpmath.besseli(3, 2 * u)\n"
        "    return besseli(4, 2 * u) / top\n"
        "bessel_i(0, 1)\n"
    )
    assert _mpmath_names(tree, {"besseli"}, {"bessel_i"}) == [1, 5, 6]
    assert _mpmath_names(tree, {"besseli"}) == [1, 3, 5, 6]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    lines = _unbounded_caches(_tree(path))
    assert not lines, f"{path.name}: unbounded cache at lines {lines}; give lru_cache a maxsize"


def test_the_scan_sees_unbounded_and_bounded_caches():
    tree = ast.parse(
        "import functools\n"
        "from functools import lru_cache, cache\n"
        "@lru_cache(maxsize=None)\n"
        "def a(): pass\n"
        "@functools.lru_cache(None)\n"
        "def b(): pass\n"
        "@functools.cache\n"
        "def c(): pass\n"
        "@lru_cache(maxsize=16)\n"
        "def d(): pass\n"
        "@lru_cache\n"
        "def e(): pass\n"
    )
    assert _unbounded_caches(tree) == [2, 3, 5, 7]
