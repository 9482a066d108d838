"""benchmarks/tracing.py wraps cylbif functions by name and binds some of their
parameters by name; a rename of either shows up here without running a subcommand."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"

# the parameters that the hooks of tracing.py read from a bound call
BOUND = {
    ("cli", "write_csv"): {"path"},
    ("cli", "write_summary"): {"cfg"},
    ("ode_shooting", "integrate_ivp"): {"steps"},
    ("morse_bifurcation", "compose_spectrum"): {"alphas", "base"},
    ("morse_bifurcation", "morse_index"): {"alphas", "base"},
    ("morse_bifurcation", "degeneracy_times"): {"alphas", "base"},
    ("pde_rectangle", "newton_solve"): {"tol", "reference_1d"},
}


def layer(name):
    return importlib.import_module(f"cylbif.{name}")


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name, functions in tracing.TRACED.items():
        for function in functions:
            assert callable(getattr(layer(name), function, None)), f"{name}.{function}"


def test_every_bound_parameter_is_in_the_signature():
    for (name, function), params in BOUND.items():
        signature = inspect.signature(getattr(layer(name), function))
        assert params <= set(signature.parameters), f"{name}.{function}"


def test_the_table_lists_every_parameter_a_hook_reads():
    # hooks read a parameter as bind_<fn>(args, kwargs)["name"] or arguments["name"]
    read = set()
    for node in ast.walk(ast.parse(TRACING.read_text())):
        if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)):
            continue
        target = node.value
        if (isinstance(target, ast.Call) and isinstance(target.func, ast.Name) and target.func.id.startswith("bind")) or (
            isinstance(target, ast.Name) and target.id == "arguments"
        ):
            read.add(node.slice.value)
    assert read == set().union(*BOUND.values())
