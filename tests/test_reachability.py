"""Every def in src/katolab is reached from a command or an experiment run.

A name-based pass over the package's syntax trees: it starts from the
command line (`cli.main`), the experiment kinds and the acceptance battery
(`experiments.RUNNERS`, `verify_all`), the report check and the packet-stack
reader (`validate_report`, `read_packets`), and from every module-level
statement other than an import, since those run on import. A reached def
reaches every top-level def, in any module, whose name it loads as a name
or an attribute, and every non-dunder method whose name it loads as an
attribute (`.name`): a bare local or an imported name never reaches a
method. A class carries its decorators, bases, field declarations and
dunder methods. A def that only tests reach is dead weight in the package,
and this test names it.

A defaulted parameter that no caller passes is a one-value knob: it
belongs in a constant. Calls in the package and in `perfbench/*.py` are
matched to defs by name; a call passes the parameters it fills by position
or keyword, and one that unpacks `*args` or `**kwargs` passes them all.
Calls in tests do not count.

Methods are matched by name, not by the receiver's class, so a method
still counts as reached when a reached def loads an attribute of the same
name from another class.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "katolab"
CALLERS = (SRC, ROOT / "perfbench")
ENTRY_POINTS = ("main", "RUNNERS", "verify_all", "validate_report", "read_packets")


def _loads(nodes) -> set:
    """The names that nodes load, as (name, loaded as an attribute) pairs."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add((sub.id, False))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                out.add((sub.attr, True))
    return out


def unreached(src=SRC) -> list:
    """Qualified names of the defs in src that no entry point reaches."""
    # name -> [(qualified name, nodes it runs when reached)], for top-level
    # defs and classes, and for methods
    defs: dict = {}
    methods: dict = {}
    on_import = []
    for path in sorted(pathlib.Path(src).glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef):
                carried = stmt.decorator_list + stmt.bases
                for item in stmt.body:
                    name = getattr(item, "name", "__")
                    if isinstance(item, ast.FunctionDef) and not name.startswith("__"):
                        methods.setdefault(name, []).append(
                            (f"{path.stem}.{stmt.name}.{name}", [item]))
                    else:
                        carried.append(item)
                defs.setdefault(stmt.name, []).append((f"{path.stem}.{stmt.name}", carried))
            elif isinstance(stmt, ast.FunctionDef):
                defs.setdefault(stmt.name, []).append((f"{path.stem}.{stmt.name}", [stmt]))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                on_import.append(stmt)
    seen = {(name, False) for name in ENTRY_POINTS} | _loads(on_import)
    frontier, reached = set(seen), set()
    while frontier:
        loads = set()
        for name, as_attribute in frontier:
            entries = defs.get(name, []) + (methods.get(name, []) if as_attribute else [])
            for qual, nodes in entries:
                reached.add(qual)
                loads |= _loads(nodes)
        frontier = loads - seen
        seen |= loads
    return sorted(qual for table in (defs, methods) for entries in table.values()
                  for qual, _ in entries if qual not in reached)


def test_every_def_is_reached_from_an_entry_point():
    assert unreached() == []


def unset_parameters(src=SRC, callers=CALLERS) -> list:
    """`module.def(param)` for each defaulted parameter of a def in src that
    no call in the callers' modules passes."""
    # name -> [(qualified name, parameters a call fills by position, defaulted)]
    defs: dict = {}
    for path in sorted(pathlib.Path(src).glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            # a method's first parameter is bound by the attribute load
            if isinstance(stmt, ast.FunctionDef):
                found = [(f"{path.stem}.{stmt.name}", stmt, 0)]
            elif isinstance(stmt, ast.ClassDef):
                found = [(f"{path.stem}.{stmt.name}.{item.name}", item, 1)
                         for item in stmt.body if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for qual, fn, bound in found:
                a = fn.args
                positional = [p.arg for p in a.posonlyargs + a.args][bound:]
                defaulted = positional[len(positional) - len(a.defaults):] + [
                    p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                defs.setdefault(fn.name, []).append((qual, positional, defaulted))
    passed: dict = {}
    for root in callers:
        for path in sorted(pathlib.Path(root).glob("*.py")):
            for call in ast.walk(ast.parse(path.read_text())):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                unpacks = (any(isinstance(arg, ast.Starred) for arg in call.args)
                           or any(kw.arg is None for kw in call.keywords))
                for qual, positional, defaulted in defs.get(name, []):
                    given = set(positional[:len(call.args)]) | {kw.arg for kw in call.keywords}
                    passed.setdefault(qual, set()).update(defaulted if unpacks else given)
    return sorted(f"{qual}({param})" for entries in defs.values()
                  for qual, _, defaulted in entries for param in defaulted
                  if param not in passed.get(qual, ()))


def test_every_defaulted_parameter_is_passed_by_a_caller():
    assert unset_parameters() == []
