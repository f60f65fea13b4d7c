"""The benchmark tracer wraps cpwall functions by name: every function
that ``LAYERS`` in ``perfbench/tracing.py`` names must exist on its
module, and each counted layer's result must carry its counter field.
The tracer imports only the standard library, so it is loaded here by
its path, without the benchmark's own dependencies."""

import importlib
import importlib.util
import pathlib
import typing

import pytest

_TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _load_layers()


@pytest.mark.parametrize(
    "module_name, functions, counter",
    [layer[1:] for layer in LAYERS],
    ids=[layer[0] for layer in LAYERS],
)
def test_traced_functions_exist(module_name, functions, counter):
    module = importlib.import_module(module_name)
    for name in functions:
        fn = getattr(module, name, None)
        assert callable(fn), f"{module_name}.{name} is traced but missing"
        if counter is not None:
            result_type = typing.get_type_hints(fn)["return"]
            assert counter in result_type.__slots__, (
                f"{module_name}.{name} returns {result_type.__name__}, "
                f"which has no field {counter!r}"
            )
