"""Every exported name resolves (``ngm.__all__`` and each submodule's), and
every submodule export is used by the library's code or kept on purpose."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import ngm

MODULES = ["ngm"] + [f"ngm.{info.name}" for info in pkgutil.iter_modules(ngm.__path__)]

#: exports with no use in the library's code that stay: the paper's checks,
#: the state constructors and the paper's moments
KEPT = {
    "fisher_matrix", "debruijn_check", "measure_derivative_check", "fidelity", "save_state",
    "negative_volume", "wigner_entropy_real", "wre_vs_gaussian", "minimizer_scan",
    "product_measure_check", "entropy_upper_bound_check", "coherent", "displaced_squeezed",
    "moments",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert len(set(exported)) == len(exported)


def code_uses(module):
    """Names the module's code reads: names, attributes and imports (a word
    in a docstring or a string is none)."""
    uses = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses.add(node.id)
        elif isinstance(node, ast.Attribute):
            uses.add(node.attr)
        elif isinstance(node, ast.alias):
            uses.add(node.name)
    return uses


def test_every_submodule_export_is_used_or_kept():
    # library code that only tests call goes
    modules = [importlib.import_module(name) for name in MODULES[1:]]
    used = set().union(*map(code_uses, modules))
    unused = [f"{module.__name__}.{attr}" for module in modules
              for attr in getattr(module, "__all__", ()) if attr not in used | KEPT]
    assert unused == []
