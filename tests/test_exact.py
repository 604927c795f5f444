"""No float decides anything in the package.

Float constants, `float(...)`, true division, float-valued `math` calls
and `math` constants appear only in the places listed in ALLOWED, each
of which says why the float there decides nothing.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "deadends"
FLOAT_MATH = {"log", "log2", "log10", "sqrt", "exp"}
FLOAT_CONSTANTS = {"inf", "nan", "pi", "e", "tau"}
# (module, qualified name of the enclosing def or class); "" is the whole module.
ALLOWED = {
    ("sol", "_SupportSearch.__init__"),  # _log_t: where the window search starts
    ("sol", "_SupportSearch.window"),  # the start only; exact tests decide
    ("abelian", "_row_reduce"),  # Fraction division
    ("cli", ""),  # Path joins
}


def _float_use(node: ast.AST):
    """What makes node a float use, or None."""
    if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
        return "constant %r" % node.value
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        return "true division"
    if isinstance(node, ast.Call):
        f = node.func
        if isinstance(f, ast.Name) and f.id == "float":
            return "float()"
        if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                and f.value.id == "math" and f.attr in FLOAT_MATH):
            return "math.%s()" % f.attr
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "math" and node.attr in FLOAT_CONSTANTS):
        return "math.%s" % node.attr
    return None


def float_sites(source: str, module: str) -> list[tuple[int, str, str]]:
    """(line, enclosing def, what) for every float use outside ALLOWED."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        allowed = any((module, ".".join(scope[:i])) in ALLOWED
                      for i in range(len(scope) + 1))
        what = None if allowed else _float_use(node)
        if what:
            out.append((node.lineno, ".".join(scope), what))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return out


def test_no_float_outside_the_allowed_places():
    sites = {path.name: float_sites(path.read_text(), path.stem)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert "sol.py" in sites
    assert {name: s for name, s in sites.items() if s} == {}


def test_a_stray_float_division_is_caught():
    source = "class _SupportSearch:\n    def reach(self, x):\n        return x / 2.0\n"
    assert float_sites(source, "sol") == [
        (3, "_SupportSearch.reach", "true division"),
        (3, "_SupportSearch.reach", "constant 2.0")]
    assert float_sites(source.replace("reach", "window"), "sol") == []
    source = "def search(cap=math.inf):\n    return math.pi * math.gcd(4, 6)\n"
    assert float_sites(source, "abelian") == [
        (1, "search", "math.inf"), (2, "search", "math.pi")]
