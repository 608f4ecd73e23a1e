"""Every definition in `src/gravcat` is reached by a CLI run.

The walk parses the package's modules, binds each name a module uses (its
own top-level definitions, and what it imports from the package), and
follows the references from `cli.main` and from the module-level statements
of each module a run imports.  A definition is a function, a class or a
name assigned at module level, or a method of a class; a reference is a
name or `module.name` read anywhere in it except in annotations, which
`from __future__ import annotations` never evaluates.  Imports inside a
function count only once that function is reached.

A reached class brings its bases, decorators, fields and dunder methods.
Any other method, property or classmethod is reached only once a reached
body reads an attribute of that name, on any object: the walk does not know
types, so a read of `params.g` reaches every class's `g`.  Reaching a
method can read more names, so the walk runs to a fixed point.  Routes that
only tests use live in `tests/oracles.py`.
"""

import ast
from pathlib import Path

import gravcat

PACKAGE = Path(gravcat.__file__).parent


def _parse_modules(root: Path) -> dict:
    """Module name ("" for the package itself) -> parsed module."""
    mods = {}
    for path in sorted(root.glob("*.py")):
        name = "" if path.stem == "__init__" else path.stem
        mods[name] = ast.parse(path.read_text(), filename=str(path))
    return mods


def _assigned_names(node) -> list:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _top_level_definitions(tree) -> dict:
    """Name -> the top-level statement that defines it."""
    defs = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defs[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for name in _assigned_names(stmt):
                defs[name] = stmt
    return defs


def _unannotated_nodes(node):
    """ast.walk without the subtrees of annotations."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        for field, value in ast.iter_fields(cur):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    stack.append(child)


def _package_imports(node, mods) -> list:
    """(local name, module, attribute or None) for each package import under
    `node`; attribute None binds the module itself."""
    found = []
    for cur in _unannotated_nodes(node):
        if not (isinstance(cur, ast.ImportFrom) and cur.level == 1):
            continue
        for alias in cur.names:
            local = alias.asname or alias.name
            if cur.module is not None:
                found.append((local, cur.module, alias.name))
            elif alias.name in mods:
                found.append((local, alias.name, None))
            else:
                found.append((local, "", alias.name))
    return found


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class _Walk:
    def __init__(self, mods: dict):
        self.mods = mods
        self.defs = {name: _top_level_definitions(tree) for name, tree in mods.items()}
        # every package import of a module, wherever it stands, binds a name
        self.bindings = {
            name: {local: (mod, attr) for local, mod, attr in _package_imports(tree, mods)}
            for name, tree in mods.items()
        }
        self.imported = set()
        self.reached = set()
        # attribute names read by reached bodies, and the methods of reached
        # classes that wait for a read of their name: name -> [(mod, class, def)]
        self.attributes_read = set()
        self.methods = {}

    def import_module(self, mod: str):
        if mod in self.imported:
            return
        self.imported.add(mod)
        if mod != "":
            self.import_module("")
        for stmt in self.mods[mod].body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for _, target, _ in _package_imports(stmt, self.mods):
                    self.import_module(target)
            elif not isinstance(stmt, (ast.FunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)):
                self.visit(mod, stmt)

    def reach(self, mod: str, name: str):
        if (mod, name) in self.reached or name not in self.defs[mod]:
            return
        self.reached.add((mod, name))
        self.import_module(mod)
        node = self.defs[mod][name]
        if isinstance(node, ast.ClassDef):
            self.reach_class(mod, node)
        else:
            self.visit(mod, node)

    def reach_class(self, mod: str, node: ast.ClassDef):
        for part in node.bases + node.keywords + node.decorator_list:
            self.visit(mod, part)
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef) and not _is_dunder(stmt.name):
                self.methods.setdefault(stmt.name, []).append((mod, node.name, stmt))
                if stmt.name in self.attributes_read:
                    self.reach_method(mod, node.name, stmt)
            else:
                self.visit(mod, stmt)

    def reach_method(self, mod: str, cls: str, node: ast.FunctionDef):
        if (mod, cls, node.name) in self.reached:
            return
        self.reached.add((mod, cls, node.name))
        self.visit(mod, node)

    def read_attribute(self, name: str):
        if name in self.attributes_read:
            return
        self.attributes_read.add(name)
        for mod, cls, node in self.methods.get(name, []):
            self.reach_method(mod, cls, node)

    def visit(self, mod: str, node):
        for _, target, _ in _package_imports(node, self.mods):
            self.import_module(target)
        for cur in _unannotated_nodes(node):
            if isinstance(cur, ast.Name):
                self.resolve(mod, cur.id)
            elif isinstance(cur, ast.Attribute):
                if isinstance(cur.ctx, ast.Load):
                    self.read_attribute(cur.attr)
                if isinstance(cur.value, ast.Name):
                    bound = self.bindings[mod].get(cur.value.id)
                    if bound is not None and bound[1] is None:
                        self.reach(bound[0], cur.attr)

    def resolve(self, mod: str, name: str):
        if name in self.defs[mod]:
            self.reach(mod, name)
        elif name in self.bindings[mod]:
            target, attr = self.bindings[mod][name]
            if attr is not None:
                self.reach(target, attr)


def unreached_definitions(root: Path = PACKAGE) -> list:
    """`module.name` of every top-level definition no CLI run reaches, and
    `module.Class.name` of every method of a reached class that none does."""
    walk = _Walk(_parse_modules(root))
    walk.import_module("cli")
    walk.reach("cli", "main")
    unreached = [(mod, name) for mod, defs in walk.defs.items() for name in defs
                 if (mod, name) not in walk.reached]
    unreached += [(mod, f"{cls}.{node.name}") for entries in walk.methods.values()
                  for mod, cls, node in entries if (mod, cls, node.name) not in walk.reached]
    return sorted(f"{mod or '__init__'}.{name}" for mod, name in unreached)


def test_every_definition_is_reached_by_a_run():
    unreached = unreached_definitions()
    assert not unreached, f"{len(unreached)} definitions no run reaches: {', '.join(unreached)}"


def _package_copy(tmp_path: Path, module: str, edit) -> Path:
    """A copy of the package with `module`'s source passed through `edit`."""
    for path in PACKAGE.glob("*.py"):
        text = path.read_text()
        (tmp_path / path.name).write_text(edit(text) if path.stem == module else text)
    return tmp_path


def test_walk_finds_an_unreached_definition(tmp_path):
    # a copy of the package with one helper nothing calls
    root = _package_copy(tmp_path, "fock",
                         lambda text: text + "\n\ndef _orphan():\n    return ladder_operators\n")
    assert unreached_definitions(root) == ["fock._orphan"]


def test_walk_finds_an_unread_method_of_a_reached_class(tmp_path):
    # FockSpace is reached and its `dim` is read; a method nobody reads is not
    def add_method(text):
        field = "    dim: int\n"
        assert field in text
        return text.replace(field, field + "\n    def orphan_member(self):\n"
                                           "        return self.dim\n", 1)

    root = _package_copy(tmp_path, "fock", add_method)
    assert unreached_definitions(root) == ["fock.FockSpace.orphan_member"]
