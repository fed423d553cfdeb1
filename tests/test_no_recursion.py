"""No function of the package calls itself: deep inputs must not recurse."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "avdcolor"


def _called_name(call: ast.Call) -> str | None:
    """``f`` for ``f(...)``, ``self.f(...)`` and ``cls.f(...)``; else None."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")):
        return func.attr
    return None


def self_calling_functions(path: Path) -> list[str]:
    """``file:line`` of each function in ``path`` that calls itself by name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [f"{path.name}:{fn.lineno}" for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(node, ast.Call) and _called_name(node) == fn.name
                    for node in ast.walk(fn))]


def test_no_function_calls_itself():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in self_calling_functions(path)] == []


def test_guard_finds_direct_and_method_recursion(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("def walk(n):\n"
                      "    return walk(n - 1) if n else 0\n"
                      "\n"
                      "\n"
                      "class Tree:\n"
                      "    def depth(self):\n"
                      "        return 1 + self.depth()\n"
                      "\n"
                      "    def size(self):\n"
                      "        return len(self.depth.__name__)\n")
    assert self_calling_functions(source) == ["sample.py:1", "sample.py:6"]
