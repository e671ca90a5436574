"""The public surface: the names `import degenfrac` binds are the names the
README's "Public API" section lists, each has a docstring of its own, and
each has a caller beyond its own tests."""

import ast
import inspect
import re
from pathlib import Path

import degenfrac

_README = Path(__file__).resolve().parents[1] / "README.md"
_ACCEPTANCE = Path(__file__).resolve().with_name("test_acceptance.py")
_PYPROJECT = _README.with_name("pyproject.toml")


def _readme_api() -> set:
    text = _README.read_text()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([^`]*)`", section))


def _exported() -> dict:
    return {n: v for n, v in vars(degenfrac).items()
            if not n.startswith("_") and not inspect.ismodule(v)}


def test_exports_are_the_readme_public_api():
    assert set(_exported()) == _readme_api()


def test_every_public_name_has_its_own_docstring():
    for name, obj in _exported().items():
        # a class's own __doc__, not an inherited one; a dataclass without
        # one gets its signature, "Name(field: type, ...)"
        doc = vars(obj).get("__doc__") if isinstance(obj, type) else obj.__doc__
        assert doc and not doc.startswith(name + "("), name


def _names_used(path: Path) -> set:
    """Every name, attribute and import in the module at path; definitions
    and strings do not count."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_public_name_has_a_caller():
    # a name that only its own tests call is run by no solver path, CLI
    # command or acceptance gate
    package = Path(degenfrac.__file__).parent
    modules = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    used = set().union(*map(_names_used, modules + [_ACCEPTANCE]))
    assert sorted(set(_exported()) - used) == []


def test_the_declared_floors_have_what_the_package_calls():
    # solver.solution_norms and oraclefd.compare call np.trapezoid, which
    # NumPy 2.0 introduced; SciPy 1.13 is the first release built for
    # NumPy 2
    floors = {name: tuple(int(v) for v in ver.split("."))
              for name, ver in re.findall(r'"(numpy|scipy)>=([\d.]+)"',
                                          _PYPROJECT.read_text())}
    src = _README.parent / "src" / "degenfrac"
    assert "np.trapezoid" in (src / "solver.py").read_text()
    assert "np.trapezoid" in (src / "oraclefd.py").read_text()
    assert floors["numpy"] >= (2, 0)
    assert floors["scipy"] >= (1, 13)
