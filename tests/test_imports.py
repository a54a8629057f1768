"""Every module of the package uses every name it imports, the package
reads every private module-level name it defines and, outside explicit
allow-lists, every public module-level function and class and every public
method and property of its classes, no module reads another module's
private names, and every module-level function reads every parameter it
takes."""

import ast
import os

import pytest

import discvar

PACKAGE = os.path.dirname(os.path.abspath(discvar.__file__))
MODULES = sorted(f for f in os.listdir(PACKAGE)
                 if f.endswith(".py") and f != "__init__.py")


def package_sources():
    """File name -> source of every module of the package."""
    sources = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                sources[name] = fh.read()
    return sources


def unused_imports(source):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = "import os\nimport sys\nfrom .x import a, b as c\n\nprint(sys.path, c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "a")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert unused_imports(fh.read()) == []


def private_definitions(source):
    """Module-level names with one leading underscore that the module binds."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def referenced_names(source):
    """Names a module reads, as bare names, attributes or imports."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def unreferenced_private_names(sources):
    """(module, name) for each private module-level name no module reads."""
    refs = set().union(*(referenced_names(src) for src in sources.values()))
    return sorted((module, name) for module, src in sources.items()
                  for name in private_definitions(src) if name not in refs)


def test_the_check_finds_an_unreferenced_private_name():
    sources = {
        "a.py": "_K = 2\n_unused = 1\n\ndef _helper():\n    return _K\n\n"
                "def _dead():\n    pass\n\nclass __Dunder:\n    pass\n",
        "b.py": "from . import a\n\nprint(a._helper())\n",
    }
    assert unreferenced_private_names(sources) == [("a.py", "_dead"),
                                                   ("a.py", "_unused")]


def test_no_unreferenced_private_names():
    sources = package_sources()
    assert unreferenced_private_names(sources) == []


def public_definitions(source):
    """Module-level functions and classes without a leading underscore."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def unread_public_names(sources):
    """"module.name" for each public module-level function or class that no
    module reads."""
    refs = set().union(*(referenced_names(src) for src in sources.values()))
    return sorted(f"{module[:-3]}.{name}" for module, src in sources.items()
                  for name in public_definitions(src) if name not in refs)


# public names the package itself never reads, and why each stays
UNREAD_PUBLIC = {
    "lgoc.action_sum": "oracle of the acceptance and gradient tests",
    "solvers.fd_jacobian": "the one difference quotient left: every model supplies its "
                           "own derivatives, so it is only the tests' Jacobian oracle, "
                           "and the benchmark's spans name it",
    "tboc.QuadraticControlCost": "built by the benchmark's ocp-flat workload",
}


def test_the_check_finds_an_unread_public_name():
    sources = {
        "a.py": "def used():\n    pass\n\ndef only_tests():\n    pass\n\n"
                "class Model:\n    pass\n\ndef _private():\n    return used()\n",
        "b.py": "from . import a\n\nprint(a.Model, a._private)\n",
    }
    assert unread_public_names(sources) == ["a.only_tests"]


def test_every_public_name_is_read_or_allowed():
    # an unread name outside the list is dead code or a test-only helper; a
    # listed name the package reads, or no longer defines, is a stale entry
    sources = package_sources()
    assert unread_public_names(sources) == sorted(UNREAD_PUBLIC)


def public_methods(source):
    """"Class.name" for each public method or property of a public
    module-level class."""
    return {f"{node.name}.{item.name}" for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")}


def attribute_reads(source):
    """Names a module reads as attributes: a method or property is reached
    through one."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)}


def unread_public_methods(sources):
    """"module.Class.name" for each public method or property that no module
    reads as an attribute."""
    refs = set().union(*(attribute_reads(src) for src in sources.values()))
    return sorted(f"{module[:-3]}.{name}" for module, src in sources.items()
                  for name in public_methods(src) if name.split(".")[1] not in refs)


# public methods and properties the package itself never reads, and why
# each stays
UNREAD_PUBLIC_METHODS = {
    "mech.RnLagrangian.ld": "named by the benchmark's spans; the tests' oracle "
                            "for the slot derivatives",
    "systems.L2Cost.grad": "named by the benchmark's spans; the one-control form "
                           "of grad_batch",
    "systems.SmoothedL1Cost.grad": "named by the benchmark's spans; the one-control "
                                   "form of grad_batch",
}


def test_the_check_finds_an_unread_public_method():
    sources = {
        "a.py": "class Model:\n    def used(self):\n        return 1\n\n"
                "    @property\n    def only_tests(self):\n        return 2\n\n"
                "    def _private(self):\n        return self.used()\n\n"
                "class _Hidden:\n    def unread(self):\n        pass\n",
        "b.py": "from . import a\n\nprint(a.Model()._private)\n",
    }
    assert unread_public_methods(sources) == ["a.Model.only_tests"]


def test_every_public_method_is_read_or_allowed():
    # as for module-level names: an unread method outside the list is dead
    # code or a test-only helper, and a listed one the package reads, or no
    # longer defines, is a stale entry
    sources = package_sources()
    assert unread_public_methods(sources) == sorted(UNREAD_PUBLIC_METHODS)


def unread_parameters(source):
    """(line, function, parameter) for each parameter of a module-level
    function that its body never reads.  Methods are left alone: they
    implement protocols whose other implementations may read the argument."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [(node.lineno, node.name, p) for p in params if p not in read]
    return found


def test_the_check_finds_an_unread_parameter():
    source = ("def f(a, b, *args, c=1, **kw):\n    return a + c + len(kw)\n\n"
              "def g(x):\n    def inner():\n        return x\n    return inner\n\n"
              "class K:\n    def method(self, unused):\n        return 0\n")
    assert unread_parameters(source) == [(1, "f", "b"), (1, "f", "args")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unread_parameters(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert unread_parameters(fh.read()) == []


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reads(source):
    """(line, "module.name") for each private name of a sibling module that a
    module reads, as ``module._name`` after ``from . import module`` or as
    ``from .module import _name``."""
    tree = ast.parse(source)
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                siblings.update(alias.asname or alias.name for alias in node.names)
            else:
                found += [(node.lineno, f"{node.module}.{alias.name}")
                          for alias in node.names if _private(alias.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_the_check_finds_a_private_read_across_modules():
    source = ("import numpy as np\nfrom . import lgoc, lie\n"
              "from .solvers import newton, _helper\n\n"
              "print(lgoc._full_nus(1), lie.hat3(2), lgoc.__name__, np._pytesttester,\n"
              "      newton, _helper)\n")
    assert private_reads(source) == [(3, "solvers._helper"), (5, "lgoc._full_nus")]


@pytest.mark.parametrize("module", MODULES)
def test_no_private_reads_across_modules(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert private_reads(fh.read()) == []
