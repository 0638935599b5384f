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

Methods are matched by name, not by the receiver's class, so a method
still counts as reached when a reached def loads an attribute of the same
name from another class.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "katolab"
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
