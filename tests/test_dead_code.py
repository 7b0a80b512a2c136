"""Every public function, class and method in src/nosigchan/ is read in src/.

Code that only the tests call is dead weight in the package: a name must be
read somewhere in src/ (as a name or an attribute) or be exported through
the package's `__all__`.  Dunder methods are exempt; Python calls them.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nosigchan"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public(name: str) -> bool:
    return not name.startswith("_")


def _defined(tree: ast.Module):
    """(qualified name, name) of each public top-level def and public method."""
    for node in tree.body:
        if isinstance(node, _DEFS) and _public(node.name):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS) and _public(item.name):
                        yield f"{node.name}.{item.name}", item.name


def _read(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _exported(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield from ast.literal_eval(node.value)


def unread_names(sources) -> list:
    """Public defs in `sources` (module name -> source) that none of them reads."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    used = {n for tree in trees.values() for n in _read(tree)}
    used |= {n for tree in trees.values() for n in _exported(tree)}
    return sorted(f"{mod}.{qual}" for mod, tree in trees.items()
                  for qual, name in _defined(tree) if name not in used)


def test_scan_finds_unread_functions_and_methods():
    sources = {
        "a": "__all__ = ['kept']\ndef kept(): pass\ndef dead(): pass\ndef _private(): pass\n"
             "class Box:\n    def used(self): pass\n    def gone(self): pass\n"
             "    def __len__(self): return 0\n",
        "b": "from a import Box\nBox().used()\n",
    }
    assert unread_names(sources) == ["a.Box.gone", "a.dead"]


def test_src_has_no_code_only_the_tests_call():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_names(sources) == []
