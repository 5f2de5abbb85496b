"""Static audit of the library's surface against every use of it.

The first two checks read the syntax trees of ``src/``, ``tests/`` and
``perfbench/``.  A defaulted parameter that no call passes is an option
that does nothing; a record field that nothing reads is state that
nothing needs.  The last two read the library alone: a count has one
rule, ``qcore.integer``, and an array argument one, ``qcore.array``, so
no entry point grows its own.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "lccsim"
SCANNED = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


@pytest.fixture(scope="module")
def library():
    return list(_trees(LIBRARY))


@pytest.fixture(scope="module")
def scanned():
    return list(_trees(*SCANNED))


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _defaulted_parameters(tree):
    """(function, parameter, positional index or None) of every parameter
    with a default; a method's index leaves out ``self``."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, ast.FunctionDef)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        shift = 1 if id(node) in methods else 0
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield node.name, arg.arg, i - shift
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def test_every_defaulted_parameter_is_passed_somewhere(library, scanned):
    calls = {}
    for _path, tree in scanned:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    offenders = sorted(
        f"{path.name}: {func}({param}=...)"
        for path, tree in library
        for func, param, index in _defaulted_parameters(tree)
        if not any(_passes(c, param, index) for c in calls.get(func, ())))
    assert offenders == [], "defaulted parameters no call passes: " + \
        ", ".join(offenders)


def _is_record(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if (isinstance(target, ast.Name) and target.id == "dataclass"
                or isinstance(target, ast.Attribute)
                and target.attr == "dataclass"):
            return True
    return any(isinstance(b, ast.Name) and b.id == "NamedTuple"
               for b in cls.bases)


def _fields(tree):
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and _is_record(cls):
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    yield cls.name, stmt.target.id


def _reads(trees) -> set[str]:
    """Every attribute loaded, and every string constant other than the
    name argument of a ``setattr`` or ``__setattr__`` call (a write)."""
    names = set()
    for _path, tree in trees:
        written = {id(node.args[1]) for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and len(node.args) > 1
                   and _callee(node) in ("setattr", "__setattr__")}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                names.add(node.attr)
            elif (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in written):
                names.add(node.value)
    return names


def test_every_record_field_is_read(library, scanned):
    reads = _reads(scanned)
    offenders = sorted(f"{path.name}: {cls}.{name}"
                       for path, tree in library
                       for cls, name in _fields(tree) if name not in reads)
    assert offenders == [], "record fields nothing reads: " + \
        ", ".join(offenders)


# parameter names that always hold a count or a dimension
_COUNTS = ("rounds", "samples", "trials", "shots", "resamples", "dim")


def test_every_count_goes_through_the_integer_rule(library):
    offenders = []
    for path, tree in library:
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            ruled = {call.args[0].id for call in ast.walk(node)
                     if isinstance(call, ast.Call)
                     and _callee(call) == "integer" and call.args
                     and isinstance(call.args[0], ast.Name)}
            args = node.args
            offenders += [
                f"{path.name}: {node.name}({arg.arg})"
                for arg in args.posonlyargs + args.args + args.kwonlyargs
                if arg.arg in _COUNTS and arg.arg not in ruled]
    assert offenders == [], "counts that skip qcore.integer: " + \
        ", ".join(sorted(offenders))


def _array_conversions(func: ast.FunctionDef):
    """``np.asarray`` and ``np.array`` calls in ``func`` whose first
    argument is one of its parameters, or a field read in
    ``__post_init__``."""
    args = func.args
    params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    for call in ast.walk(func):
        if not (isinstance(call, ast.Call) and call.args
                and isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "np"
                and call.func.attr in ("asarray", "array")):
            continue
        first = call.args[0]
        if (isinstance(first, ast.Name) and first.id in params
                or func.name == "__post_init__"
                and isinstance(first, ast.Attribute)
                and isinstance(first.value, ast.Name)
                and first.value.id == "self"):
            yield call.lineno, f"{call.func.attr}({ast.unparse(first)})"


def test_every_array_argument_goes_through_the_array_rule(library):
    offenders = {
        f"{path.name}:{line}: {node.name} {conversion}"
        for path, tree in library
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and not (path.name == "qcore.py" and node.name == "array")
        for line, conversion in _array_conversions(node)}
    assert offenders == set(), "array arguments that skip qcore.array: " + \
        ", ".join(sorted(offenders))
