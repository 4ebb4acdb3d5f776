"""Every public name that callers outside the package rely on resolves.

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


def test_batched_propagation_is_exported():
    from spinlens import propagator

    for name in ("expimv_batch", "split_stacks", "trajectory_batch", "window_batch"):
        assert name in spinlens.__all__
        assert getattr(spinlens, name) is getattr(propagator, name)


def test_batched_widths_are_exported():
    from spinlens import wavepacket

    assert "gaussian_widths" in spinlens.__all__
    assert spinlens.gaussian_widths is wavepacket.gaussian_widths
