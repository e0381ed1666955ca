import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "fanscheme"


def _unused_imports(tree):
    """Names bound by module-level imports that nothing reads; names listed
    in __all__ count as read."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read.update(_exported(tree))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _names_read(tree):
    """Every name a module reads: loaded names, attributes, names imported
    from other modules and the entries of __all__."""
    read = set(_exported(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _unread_definitions(modules, readers):
    """(module, line, name) of each module-level function or class of the
    parsed modules ({name: tree}), and of each public function in the body
    of such a class (named Class.function), that no reader tree reads.  A
    name counts as read wherever it appears, so a method or attribute of
    the same name hides an unread function: the check can miss one, never
    invent one."""
    read = set().union(*map(_names_read, readers))
    found = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((module, node, node.name))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (module, f, node.name + "." + f.name)
                    for f in node.body
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                )
    return sorted((m, d.lineno, name) for m, d, name in found if d.name not in read)


def _parsed(*dirs):
    return {
        p.name: ast.parse(p.read_text(encoding="utf-8"))
        for d in dirs
        for p in sorted(d.glob("*.py"))
    }


def test_package_modules_have_no_unused_imports():
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    unused = {
        p.name: _unused_imports(ast.parse(p.read_text(encoding="utf-8")))
        for p in paths
    }
    assert {name: found for name, found in unused.items() if found} == {}


_DICT_WRITES = {"update", "setdefault", "pop", "popitem", "clear",
                "__setitem__", "__delitem__"}


def _instance_dict(node):
    """Is node x.__dict__ or vars(x)?"""
    return (isinstance(node, ast.Attribute) and node.attr == "__dict__") or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "vars"
        and len(node.args) == 1
    )


def _attribute_hooks(tree):
    """(line, what) of each class-level __getattr__ or __getattribute__ and
    of each write to an instance's __dict__ (or vars): an entry assigned or
    deleted, or a call of a dict method that changes it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            found.extend(
                (f.lineno, node.name + "." + f.name)
                for f in node.body
                if isinstance(f, ast.FunctionDef)
                and f.name in ("__getattr__", "__getattribute__")
            )
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and _instance_dict(node.value)
        ):
            found.append((node.lineno, "__dict__[...]"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _DICT_WRITES
            and _instance_dict(node.func.value)
        ):
            found.append((node.lineno, "__dict__." + node.func.attr))
    return sorted(found)


def test_no_class_hooks_attribute_lookup():
    # a class with __getattr__ gets none of the interpreter's specialised
    # attribute reads; a record derives a value with lattice._derived and
    # stores its attributes with object.__setattr__
    hooks = {name: _attribute_hooks(tree) for name, tree in _parsed(SOURCE).items()}
    assert {name: found for name, found in hooks.items() if found} == {}


def test_attribute_hook_finder():
    tree = ast.parse(
        "class A:\n"
        "    def __getattr__(self, name): pass\n"
        "class B:\n"
        "    def __getattribute__(self, name): pass\n"
        "    def get(self): return self.__dict__['x']\n"
        "x.__dict__['a'] = 1\n"
        "del x.__dict__['a']\n"
        "x.__dict__.update(a=1)\n"
        "x.__dict__.pop('a')\n"
        "object.__setattr__(x, 'a', 1)\n"
        "def __getattr__(name): pass\n"
        "vars(x)['a'] = 1\n"
        "vars(x).update(a=1)\n"
        "vars(x).get('a')\n"
    )
    assert _attribute_hooks(tree) == [
        (2, "A.__getattr__"), (4, "B.__getattribute__"), (6, "__dict__[...]"),
        (7, "__dict__[...]"), (8, "__dict__.update"), (9, "__dict__.pop"),
        (12, "__dict__[...]"), (13, "__dict__.update"),
    ]


def test_unused_import_finder():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from math import gcd, lcm as l\n"
        "__all__ = ['gcd']\n"
        "print(os.sep)\n"
    )
    assert _unused_imports(tree) == [(3, "sys"), (4, "l")]


# public methods and properties that no package, demo or benchmark code
# reads, kept until their removal is signed off (ROADMAP items 8 and 10)
UNREAD_KEPT = {
    "Polycone.lineality_rank",
    "Polycone.generator_rows",
    "IntMatrix.transpose",
    "AffineMonoid.is_cone_monoid",
    "AugmentationSection.apply",
}


def test_every_package_definition_has_a_reader():
    # the package, the demos and the benchmark count as readers; tests do not
    modules = _parsed(SOURCE)
    readers = _parsed(SOURCE, ROOT / "demos", ROOT / "perfbench").values()
    unread = {name for _, _, name in _unread_definitions(modules, readers)}
    assert unread == UNREAD_KEPT


def test_unread_definition_finder():
    module = ast.parse(
        "import os\n"
        "__all__ = ['exported']\n"
        "def exported(): pass\n"
        "def called(): pass\n"
        "def attribute(): pass\n"
        "def imported(): pass\n"
        "def unread(): pass\n"
        "class Unread: pass\n"
        "def store(): pass\n"
        "store = called()\n"
        "os.attribute\n"
        "class Read:\n"
        "    def __init__(self): pass\n"
        "    def _private(self): pass\n"
        "    def method(self): pass\n"
        "    @property\n"
        "    def unread_property(self): pass\n"
        "Read().method()\n"
    )
    other = ast.parse("from m import imported\n")
    found = _unread_definitions({"m.py": module}, [module, other])
    assert found == [("m.py", 7, "unread"), ("m.py", 8, "Unread"), ("m.py", 9, "store"),
                     ("m.py", 17, "Read.unread_property")]
