"""The library exports what its callers use, and every knob is turned somewhere.

Read from the source by AST, without importing the package. For the domain
modules below:

* every public name (the module's `__all__` and its public top-level
  functions and classes) is referenced somewhere in src/bosemilne outside its
  own definition and `__init__.py`;
* every defaulted parameter of a function or method there is passed, by
  keyword or by position, at some call site in src/bosemilne;
* every name `__init__.py` re-exports is a public name of its module with
  such a caller, so a reference only the tests call cannot come back as an
  export.

A parameter that nothing sets is a constant with a misleading name, and a
function that nothing calls is code to keep working for no caller. The few
kept on purpose are listed in EXEMPT with the reason; an exemption that is no
longer needed fails too.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "bosemilne"
MODULES = ("special", "quadrature", "dispersion", "factorization", "field", "saddle", "dom",
           "acceptance", "util")

# "module.name" for a public name, "module.function(param)" for a parameter.
# bench/spans.py wraps pv_integral by name, so it and what only it needs stay
# until a change of the benchmark drops them
EXEMPT = {
    "quadrature.pv_integral":
        "bench/spans.py wraps it by name; the tests check the subtraction formula through it",
    "quadrature.PvIntegrand":
        "pv_integral's argument, so it goes with pv_integral",
    "quadrature.pv_integral(tol)":
        "the tests compare it with pv_rows and scipy's QAWC at tolerance 1e-11",
    "quadrature.pv_rows":
        "pv_integral's body, and the tests' adaptive reference for v_cut and the field; "
        "it goes with pv_integral",
    "quadrature.pv_rows(max_depth)":
        "the tests' references at tolerance 1e-12 and 1e-13 bisect deeper than the default",
}


def _trees():
    return {p.stem: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}


def _public_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.add(node.name)
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names


def _references(trees):
    """(module, enclosing top-level name, name) of every name read in the source.

    A bare name or an attribute counts wherever it appears: the match is by
    name, so it can only find a caller where there is none, never miss one.
    """
    refs = []
    for module, tree in trees.items():
        for top in tree.body:
            enclosing = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    refs.append((module, enclosing, node.id))
                elif isinstance(node, ast.Attribute):
                    refs.append((module, enclosing, node.attr))
    return refs


def _functions(tree):
    """(name, def node, is_method) of every top-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    yield item.name, item, not static


def _defaulted(fn, is_method):
    """(positional index at a call site or None, name) of every parameter with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    offset = 1 if is_method else 0
    first = len(positional) - len(args.defaults)
    out = [(i - offset, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _call_sites(trees):
    """callee name -> (positional count, keyword names) of every call by that name."""
    sites = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            n_pos = sum(not isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            sites.setdefault(name, []).append((n_pos, keywords))
    return sites


def _unreferenced_names(modules=MODULES):
    """Public names read nowhere but in their own definition, `__all__`,
    `__init__.py` or the body of an exempted reference implementation."""
    trees = _trees()
    exempt_bodies = {tuple(key.split(".")) for key in EXEMPT if "(" not in key}
    refs = _references(trees)
    missing = []
    for module in modules:
        for name in sorted(_public_names(trees[module])):
            if not any(ref == name and (mod, top) != (module, name)
                       and (mod, top) not in exempt_bodies
                       for mod, top, ref in refs):
                missing.append(f"{module}.{name}")
    return missing


def _reexports():
    """"module.name" of every name `__init__.py` imports from a module of the package."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [f"{node.module}.{alias.name}" for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]


def _unset_parameters():
    """Defaulted parameters that no call by the function's name passes."""
    trees = _trees()
    sites = _call_sites(trees)
    unset = []
    for module in MODULES:
        for name, fn, is_method in _functions(trees[module]):
            calls = sites.get(name, [])
            for index, param in _defaulted(fn, is_method):
                if not any(param in kw or (index is not None and index < n_pos)
                           for n_pos, kw in calls):
                    unset.append(f"{module}.{name}({param})")
    return unset


def test_every_public_name_has_a_caller():
    missing = [n for n in _unreferenced_names() if n not in EXEMPT]
    assert missing == [], "public names no source module uses: " + ", ".join(missing)


def test_every_defaulted_parameter_is_set_somewhere():
    unset = [p for p in _unset_parameters() if p not in EXEMPT]
    assert unset == [], "defaulted parameters no call site sets: " + ", ".join(unset)


def test_every_export_is_a_public_name_with_a_caller():
    exports = _reexports()
    modules = sorted({key.split(".")[0] for key in exports})
    trees = _trees()
    public = {f"{m}.{name}" for m in modules for name in _public_names(trees[m])}
    unused = set(_unreferenced_names(modules)) - set(EXEMPT)
    bad = [key for key in exports if key not in public or key in unused]
    assert len(exports) > 30 and bad == [], "exports no source module uses: " + ", ".join(bad)


def test_exemptions_are_still_needed():
    needed = set(_unreferenced_names()) | set(_unset_parameters())
    assert sorted(set(EXEMPT) - needed) == []


@pytest.mark.parametrize("module", MODULES)
def test_all_lists_only_defined_names(module):
    tree = _trees()[module]
    defined = {getattr(node, "name", None) for node in tree.body}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            defined |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    listed = [n for n in _public_names(tree) if n not in defined]
    assert listed == []
