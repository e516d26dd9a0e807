import ast
from pathlib import Path

import zetaforest


def test_every_exported_name_resolves():
    missing = [name for name in zetaforest.__all__ if not hasattr(zetaforest, name)]
    assert not missing


def _own_nodes(fn: ast.AST):
    """The nodes of a function's body, not descending into nested functions,
    lambdas or classes: calls there run in frames of their own, often later."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _self_calling_functions(source: str) -> set:
    """Names of the functions in `source` whose own body calls them by name,
    directly or through self/cls.  A parameter of the same name shadows it."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        for node in _own_nodes(fn):
            f = node.func if isinstance(node, ast.Call) else None
            if isinstance(f, ast.Name) and f.id == fn.name and fn.name not in params:
                found.add(fn.name)
            elif (isinstance(f, ast.Attribute) and f.attr == fn.name
                  and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
                found.add(fn.name)
    return found


def test_recursion_ratchet():
    # recursion depth follows input size, so deep input raises RecursionError
    package = Path(zetaforest.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        found |= _self_calling_functions(path.read_text())
    assert found == set()


def _is_lru_cache(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "lru_cache"
            or isinstance(node, ast.Attribute) and node.attr == "lru_cache")


def _unbounded_caches(module: ast.Module):
    """Lines that import or name functools.cache, decorate with a bare
    lru_cache, or call lru_cache with maxsize None."""
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(a.name == "cache" for a in node.names):
                yield node.lineno
        elif (isinstance(node, ast.Attribute) and node.attr == "cache"
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            yield node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from (d.lineno for d in node.decorator_list if _is_lru_cache(d))
        elif isinstance(node, ast.Call) and _is_lru_cache(node.func):
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if any(isinstance(s, ast.Constant) and s.value is None for s in sizes):
                yield node.lineno


def test_cache_ratchet():
    # a cache in a long-lived process must have a bound, stated where it is made
    package = Path(zetaforest.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for line in _unbounded_caches(ast.parse(path.read_text()))]
    assert found == []


def _true_divisions(module: ast.Module):
    """Lines with a `/` or `/=`."""
    for node in ast.walk(module):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno


def test_no_true_division():
    # coefficients stay plain ints while built from ints, and int / int is an
    # inexact float; an exact quotient is built as Rat(p, q)
    assert sorted(_true_divisions(ast.parse("a = b / c\nd //= e\nd /= f"))) == [1, 3]
    package = Path(zetaforest.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for line in _true_divisions(ast.parse(path.read_text()))]
    assert found == []


def _generators_unpacked_into_gcd_or_lcm(module: ast.Module):
    """Lines of a `gcd(...)` or `lcm(...)` call that star-unpacks a generator expression."""
    for node in ast.walk(module):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in ("gcd", "lcm") and any(
                    isinstance(a, ast.Starred) and isinstance(a.value, ast.GeneratorExp) for a in node.args):
                yield node.lineno


def test_no_generator_unpacked_into_gcd_or_lcm():
    # the argument tuple of f(*generator) is built at a guessed size and
    # resized, so each call leaves one more tuple on a free list and memory
    # climbs over a long run; a list or a dict view has its size up front
    source = "a = lcm(*(x for x in y))\nb = gcd(*[x for x in y])\nc = math.gcd(d, *(x for x in y))"
    assert sorted(_generators_unpacked_into_gcd_or_lcm(ast.parse(source))) == [1, 3]
    package = Path(zetaforest.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for line in _generators_unpacked_into_gcd_or_lcm(ast.parse(path.read_text()))]
    assert found == []


def _mod_twos(module: ast.Module):
    """Lines with a `% 2`."""
    for node in ast.walk(module):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                and isinstance(node.right, ast.Constant) and node.right.value == 2):
            yield node.lineno


def test_expansion_sign_has_one_home():
    # the sign (-1)^wt of the t-adic expansion comes from indices.bumps,
    # which yields it with every term; no other module works it out
    assert sorted(_mod_twos(ast.parse("a = b % 2\nc = d % 3\ne = (f + g) % 2"))) == [1, 3]
    package = Path(zetaforest.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py")) if path.name != "indices.py"
             for line in _mod_twos(ast.parse(path.read_text()))]
    assert found == []


def _raised_names(module: ast.Module):
    """(line, name) of every `raise Name(...)` or `raise Name`."""
    for node in ast.walk(module):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield node.lineno, exc.id


def test_tree_validity_has_one_home():
    # Tree.build validates, so a tree is valid once it exists and no other
    # module checks its structure again
    from zetaforest import errors

    invalid = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.InvalidTree)}
    assert invalid == {"InvalidTree", "NotConnected", "NotATree", "NegativeEdgeIndex", "TerminalNotBlack"}
    assert list(_raised_names(ast.parse("raise A('x')\nraise B\nraise"))) == [(1, "A"), (2, "B")]
    package = Path(zetaforest.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py")) if path.name != "trees.py"
             for line, name in _raised_names(ast.parse(path.read_text())) if name in invalid]
    assert found == []


def _from_indices(module: ast.Module):
    """The names a module imports from `zetaforest.indices`, the module
    itself included when it is imported whole."""
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.module == "zetaforest.indices":
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "zetaforest":
            yield from (alias.name for alias in node.names if alias.name == "indices")
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names if alias.name == "zetaforest.indices")


def test_reference_oracles_share_no_enumerator():
    # the brute-force references enumerate bump vectors and weigh them with
    # math.comb themselves, so a fault in indices.bumps cannot reach them
    sample = "from zetaforest.indices import A, B\nfrom zetaforest import indices, trees\nimport zetaforest.indices"
    assert list(_from_indices(ast.parse(sample))) == ["A", "B", "indices", "zetaforest.indices"]
    oracles = Path(__file__).resolve().parent / "enum_oracles.py"
    assert set(_from_indices(ast.parse(oracles.read_text()))) == {"Tuple_"}


def test_reference_oracles_import_no_map_they_check():
    # the references rebuild phi_hat, the tree map and the oracles, so from
    # the library they take only types, an error and the z-word encoding
    oracles = Path(__file__).resolve().parent / "enum_oracles.py"
    names = set()
    for node in ast.walk(ast.parse(oracles.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "zetaforest":
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names if alias.name.split(".")[0] == "zetaforest"}
    assert names == {"UnknownVertex", "Tuple_", "Rat", "TSeries", "Tree", "HElem",
                     "word_from_index", "z_decompose"}


# defined in the package but named nowhere in it (outside __init__.py) or in
# perfbench; each stays for the reason given, and may only leave this list
_UNCALLED = {
    "zeta_tree_u": "the paper's u-shifted tree sum for one vertex, public API",
    "rat_series": "builds a rational series from plain numbers, public API",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(module: ast.Module):
    """Top-level functions and classes, and the non-dunder methods of the
    classes.  Dunder hooks, such as a module's `__getattr__`, are called by
    the interpreter and named nowhere, so they are left out."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in module.body:
        if isinstance(node, (*functions, ast.ClassDef)) and not _is_dunder(node.name):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not _is_dunder(item.name):
                    yield item.name


def _named(module: ast.Module):
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_dead_code_ratchet():
    package = Path(zetaforest.__file__).parent
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    assert perfbench.is_dir()
    defined, named = set(), set()
    for path in sorted(package.glob("*.py")):
        module = ast.parse(path.read_text())
        defined |= set(_definitions(module))
        if path.name != "__init__.py":
            named |= set(_named(module))
    for path in sorted(perfbench.glob("*.py")):
        named |= set(_named(ast.parse(path.read_text())))
    assert defined - named == set(_UNCALLED)


def test_combo_subclasses_add_no_state():
    # a combination is its dict of keys and nothing else, so + - * wrap the
    # dict they build and no subclass hook carries state along
    package = Path(zetaforest.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(b, ast.Name) and b.id == "Combo" for b in node.bases):
                slots = [ast.literal_eval(s.value) for s in node.body if isinstance(s, ast.Assign)
                         and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in s.targets)]
                found[node.name] = slots
    assert {"HElem", "TreeCombo"} <= found.keys()
    assert {name: slots for name, slots in found.items() if slots != [()]} == {}
