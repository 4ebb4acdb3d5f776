"""Every public name that callers outside the package rely on resolves,
and every exported name is used by the package itself.

Traced benchmark runs (``perfbench/tracing.py``) patch the functions listed
in its ``TRACED`` table by name, so removing or renaming one breaks those
runs. The table is read from the file's source, without importing or
executing anything under ``perfbench/``.
"""

import ast
import importlib
from pathlib import Path

import spinlens

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
PACKAGE = Path(spinlens.__file__).resolve().parent

# Exported names that no code in the package uses, each with its reason.
UNUSED_EXPORTS = {
    "wigner_lattice": "acceptance criterion 11 checks it against dense oracles",
}


def traced_names() -> list:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError("no TRACED table in perfbench/tracing.py")


def resolves(mod: str, attr: str) -> bool:
    module = importlib.import_module(f"spinlens.{mod}")
    if "." in attr:  # "Class.method" is patched on the class itself
        cls_name, meth = attr.split(".")
        return meth in vars(getattr(module, cls_name, object))
    return callable(getattr(module, attr, None))


def test_every_traced_name_resolves():
    names = traced_names()
    assert len(names) > 10
    assert [n for n in names if not resolves(*n)] == []


def test_every_exported_name_resolves():
    assert [n for n in spinlens.__all__ if not hasattr(spinlens, n)] == []


def test_one_chebyshev_entry_point_per_use():
    """``real_window`` is exported; the batch entry points are gone, and a
    caller with many blocks loops over ``propagator.expimv``."""
    from spinlens import propagator

    assert "real_window" in spinlens.__all__
    assert spinlens.real_window is propagator.real_window
    for name in ("expimv_batch", "split_stacks"):
        assert name not in spinlens.__all__
        assert not hasattr(spinlens, name) and not hasattr(propagator, name)


def test_batched_widths_are_exported():
    from spinlens import wavepacket

    assert "gaussian_widths" in spinlens.__all__
    assert spinlens.gaussian_widths is wavepacket.gaussian_widths


class _Uses(ast.NodeVisitor):
    """Identifiers loaded and attributes read, except inside the definition
    of the same name (a recursive call is not a use)."""

    def __init__(self):
        self.names, self.defining = set(), []

    def _definition(self, node):
        self.defining.append(node.name)
        self.generic_visit(node)
        self.defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _use(self, name):
        if name not in self.defining:
            self.names.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)


def test_every_exported_name_is_used_in_the_package():
    """An export that only ``__init__``, docstrings and its own tests reach is
    dead code; uses are found in the syntax tree, so prose does not count."""
    uses = _Uses()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            uses.visit(ast.parse(path.read_text(encoding="utf-8")))
    exempt = {attr for _, attr in traced_names()} | set(UNUSED_EXPORTS)
    assert set(UNUSED_EXPORTS) <= set(spinlens.__all__)
    assert [n for n in spinlens.__all__ if n not in uses.names | exempt] == []
