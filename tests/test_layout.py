"""Layout guards.

Caller guard: a name in a module's __all__ must be referenced somewhere in
src/platelab outside its own definition, by an acceptance criterion, or by
the benchmark's trace pass (perfbench/layers.py).  The same holds for each
public method and property of a public class, referenced by attribute name.
Names kept without a caller are listed in EXEMPT with the reason, methods
as Class.method.

Option guard: every defaulted parameter of a public function, public
method or __init__ in symbols, lscheck, plate, semigroup and cli must be
passed a value other than its default by some call in src/platelab, in an
acceptance criterion or in perfbench/layers.py.  Calls are matched by the
function's name (for __init__, its class's), the value by keyword or by
position.  Any expression but a constant equal to the default counts, so
forwarding the caller's own parameter of the same name does.  Options kept
without a caller are listed in EXEMPT as function:parameter or
Class.method:parameter.

Field guard: every annotated class field and every `self.NAME =` attribute
in src/platelab is read somewhere in src/, tests/ or perfbench/.

Manifest guard: every write_json / write_csv call in cli.py passes a
`_manifest(...)` call as its record, and each of the nine commands that
writes an artifact makes such a call.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "platelab"

EXEMPT = {
    "build_global_weight": "paper quantity (global Carleman weight); its "
                           "CLI caller needs an --exclusion option for "
                           "subell and gamma-search (ROADMAP)",
    "factor_symbol_eval": "reference evaluation that tests compare against",
    "MetricField.diagonal": "the paper's variable metric; only tests build "
                            "one until a CLI option exists",
    "TangentialPoint.scaled": "homogeneity tests dilate points",
    "MetricField.__init__:ginv": "the paper's variable metric; only tests "
                                 "build one until a CLI option exists",
    "MetricField.__init__:dginv": "the variable metric's gradient, as ginv",
    "MetricField.diagonal:dcoeffs": "the variable metric's gradient, as ginv",
    "clamped_beam_beta:k": "the k-th clamped beam root; criterion 6 asks "
                           "for k = 1",
}

# the modules whose options the option guard checks; weights keeps its
# metric for the bracket layer, where the metric's derivatives enter
OPTION_MODULES = ("symbols", "lscheck", "plate", "semigroup", "cli")


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _references(tree, strings=False, attributes=False):
    """(name, line) of every identifier use in the tree, or with attributes
    of every attribute use only; with strings, also string constants
    (perfbench/layers.py names the functions it wraps)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Name) and not attributes:
            yield node.id, node.lineno
        elif isinstance(node, ast.alias) and not attributes:
            yield node.name, node.lineno
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            yield node.value, node.lineno


def _public_names():
    for path in sorted(SRC.glob("*.py")):
        tree = _parse(path)
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                for elt in node.value.elts:
                    yield path, elt.value


def _definition_lines(tree, name):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node.name == name:
            return range(node.lineno, node.end_lineno + 1)
    return range(0)


def _callers(attributes=False):
    """name -> set of (file, line) references outside __all__ lists."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for name, line in _references(_parse(path), attributes=attributes):
            found.setdefault(name, set()).add((path, line))
    for path, strings in ((ROOT / "tests" / "test_acceptance.py", False),
                          (ROOT / "perfbench" / "layers.py", True)):
        for name, line in _references(_parse(path), strings, attributes):
            found.setdefault(name, set()).add((path, line))
    return found


def test_every_public_name_has_a_caller():
    callers = _callers()
    public = list(_public_names())
    assert {k for k in EXEMPT if "." not in k and ":" not in k} \
        <= {name for _, name in public}
    orphans = []
    for path, name in public:
        own = _definition_lines(_parse(path), name)
        uses = [(f, line) for f, line in callers.get(name, ())
                if not (f == path and line in own)]
        if not uses and name not in EXEMPT:
            orphans.append(f"{path.stem}.{name}")
    assert not orphans, f"public names without a caller: {orphans}"


def _public_methods():
    """(file, Class.method, definition lines) of every public method and
    property of a class named in its module's __all__."""
    for path, name in _public_names():
        for cls in _parse(path).body:
            if isinstance(cls, ast.ClassDef) and cls.name == name:
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) \
                            and not node.name.startswith("_"):
                        yield (path, f"{name}.{node.name}",
                               range(node.lineno, node.end_lineno + 1))


def test_every_public_method_has_a_caller():
    callers = _callers(attributes=True)
    methods = list(_public_methods())
    assert {k for k in EXEMPT if "." in k and ":" not in k} \
        <= {qual for _, qual, _ in methods}
    orphans = []
    for path, qual, own in methods:
        uses = [(f, line) for f, line in callers.get(qual.split(".")[1], ())
                if not (f == path and line in own)]
        if not uses and qual not in EXEMPT:
            orphans.append(f"{path.stem}.{qual}")
    assert not orphans, f"public methods without a caller: {orphans}"


def _fields():
    """(file, class, name) of every annotated class field and every
    attribute assigned through self in src/platelab."""
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(_parse(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) \
                        and isinstance(node.target, ast.Name):
                    yield path, cls.name, node.target.id
            for node in ast.walk(cls):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Store) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id == "self":
                    yield path, cls.name, node.attr


def test_every_field_is_read():
    """Matched by attribute name, like the caller guard: a read of any
    attribute of that name anywhere counts."""
    reads = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                 *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    unread = sorted({f"{path.stem}.{cls}.{name}"
                     for path, cls, name in _fields() if name not in reads})
    assert not unread, f"fields never read: {unread}"


def test_every_artifact_is_a_manifest():
    tree = _parse(SRC / "cli.py")
    writers, bare = set(), []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) \
                    and getattr(node.func, "id", None) in ("write_json",
                                                           "write_csv"):
                record = node.args[1] if len(node.args) > 1 else None
                if isinstance(record, ast.Call) \
                        and getattr(record.func, "id", None) == "_manifest":
                    writers.add(fn.name)
                else:
                    bare.append(f"{fn.name}:{node.lineno}")
    assert not bare, f"artifacts written without _manifest: {bare}"
    assert writers == {"cmd_catalog", "cmd_roots", "cmd_ls_check",
                       "cmd_subell", "cmd_gamma_search", "cmd_spectrum",
                       "cmd_simulate", "cmd_resolvent", "cmd_decay_fit"}


def _public_defs(path):
    """(qualified name, FunctionDef, parameters bound by position) of each
    public function of a module and each public method and __init__ of its
    public classes; a module without __all__ (cli) is public in its names
    without a leading underscore."""
    defs = [node for node in _parse(path).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    public = {name for p, name in _public_names() if p == path} or {
        node.name for node in defs if not node.name.startswith("_")}
    for node in defs:
        if node.name not in public:
            continue
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, node.args.args
            continue
        for fn in node.body:
            if isinstance(fn, ast.FunctionDef) and (
                    fn.name == "__init__" or not fn.name.startswith("_")):
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in fn.decorator_list)
                yield (f"{node.name}.{fn.name}", fn,
                       fn.args.args[0 if static else 1:])


def _options(path):
    """(Class.method:parameter or function:parameter, callee name, default,
    positional parameters) of every defaulted parameter of _public_defs;
    the callee of __init__ is its class."""
    for qual, fn, positional in _public_defs(path):
        cls, _, method = qual.rpartition(".")
        callee = cls if method == "__init__" else method
        args = fn.args
        defaults = [*zip(args.args[::-1], args.defaults[::-1]),
                    *zip(args.kwonlyargs, args.kw_defaults)]
        for arg, default in defaults:
            if default is not None:
                yield f"{qual}:{arg.arg}", callee, default, positional


def _calls():
    """callee name -> Call nodes in src/platelab, the acceptance criteria
    and perfbench/layers.py; an import alias counts as its name."""
    found = {}
    for path in [*sorted(SRC.glob("*.py")), ROOT / "tests" / "test_acceptance.py",
                 ROOT / "perfbench" / "layers.py"]:
        tree = _parse(path)
        alias = {a.asname: a.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for a in node.names
                 if a.asname}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) \
                    or getattr(node.func, "attr", None)
                found.setdefault(alias.get(name, name), []).append(node)
    return found


def _sets(call, positional, param, default):
    """Whether call passes param, by keyword or by position before any
    *args, a value that is not the default constant."""
    value = next((k.value for k in call.keywords if k.arg == param), None)
    for arg, p in zip(call.args, positional):
        if isinstance(arg, ast.Starred):
            break
        if p.arg == param:
            value = arg
    if value is None:
        return False
    return not (isinstance(value, ast.Constant)
                and isinstance(default, ast.Constant)
                and value.value == default.value)


def test_every_option_has_a_caller():
    calls = _calls()
    options = [opt for m in OPTION_MODULES for opt in _options(SRC / f"{m}.py")]
    assert {k for k in EXEMPT if ":" in k} <= {key for key, *_ in options}
    orphans = [key for key, callee, default, positional in options
               if key not in EXEMPT and not any(
                   _sets(call, positional, key.split(":")[1], default)
                   for call in calls.get(callee, ()))]
    assert not orphans, f"options that no caller sets: {orphans}"
