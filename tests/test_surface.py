"""Every public function or method in `src/powmon` has a caller there.

A def counts as called when its name is loaded somewhere in the package
(`powmon/__init__.py`, which only re-exports, left out), either as a name
or as an attribute, outside every def of the same name: a method that calls
its namesake on another object, as `PuiseuxMonoid.members_upto` calls
`NumericalMonoid.members_upto`, calls neither.  The defs without such a
caller are exactly those kept below, each for its reason.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "powmon"

# ROADMAP item 8's keep-list
KEEP = {
    "_kernels.backend_name": "perfbench's worker names the kernel by it",
    "decompose.set_length_set": "perfbench's corpus-sweep `lengths:` op calls and traces it",
    "puiseux.geometric_chain": "perfbench's tracing wraps it by name",
    "powerset.size_bound_check": "the size dichotomy acceptance criterion 2 checks",
    "numerical.NumericalMonoid.apery_set": "the Apery set acceptance criterion 10 checks",
    "numerical.NumericalMonoid.members_upto": "the public member listing (README)",
    "puiseux.PuiseuxMonoid.members_upto": "the public member listing (README)",
}


class _Scan(ast.NodeVisitor):
    """Collects the public defs of one module and the names it loads."""

    def __init__(self, module: str, defs: list, loaded: set):
        self.module, self.defs, self.loaded = module, defs, loaded
        self.scope: list[tuple[str, str]] = []  # ("class" or "def", name)

    def visit_ClassDef(self, node):
        self.scope.append(("class", node.name))
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        if not node.name.startswith("_"):
            path = [name for _, name in self.scope] + [node.name]
            self.defs.append(".".join([self.module, *path]))
        self.scope.append(("def", node.name))
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def load(self, name: str):
        if ("def", name) not in self.scope:
            self.loaded.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.load(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.load(node.attr)
        self.generic_visit(node)


def _uncalled() -> set[str]:
    defs: list[str] = []
    loaded: set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue
        module = path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
        module = module.removesuffix(".__init__")
        _Scan(module, defs, loaded).visit(ast.parse(path.read_text(encoding="utf-8")))
    return {d for d in defs if d.rsplit(".", 1)[-1] not in loaded}


def test_every_public_def_has_a_caller_or_a_reason():
    uncalled = _uncalled()
    assert sorted(uncalled - KEEP.keys()) == [], "give each a caller in src/, or delete it"
    assert sorted(KEEP.keys() - uncalled) == [], "each has a caller now: drop it from KEEP"


def test_a_call_inside_a_namesake_def_is_no_caller():
    """The scan's own blind spot, closed: a def reached only from a def of
    the same name is flagged, and a plain call still counts."""
    defs: list[str] = []
    loaded: set[str] = set()
    source = ("class A:\n    def f(self, b):\n        return b.f()\n"
              "def g():\n    return h()\ndef h():\n    pass\n")
    _Scan("m", defs, loaded).visit(ast.parse(source))
    assert defs == ["m.A.f", "m.g", "m.h"]
    assert "h" in loaded and not {"f", "g"} & loaded
