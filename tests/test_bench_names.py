"""The benchmark's tracer (``bench/spans.py``) wraps supersym functions and
methods by name, and the benchmark's own tests read a few import sites by
name.  These tests check that every such name still resolves, so that a
rename in the library fails here and not only in a traced benchmark run."""

import importlib
import importlib.util
import inspect
import pathlib
import types

import pytest

import supersym

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def sup(spans):
    """The package and its traced modules, as the benchmark hands them to
    ``spans.targets``."""
    modules = {name: importlib.import_module(f"supersym.{name}") for name in spans.MODULES}
    return types.SimpleNamespace(package=supersym, **modules)


def test_targets_resolve_every_method(spans, sup):
    names = {name for name, _, _ in spans.targets(sup)}
    for mod_name, classes in spans.METHODS.items():
        for cls_name, methods in classes.items():
            for meth in methods:
                assert spans.span_name(mod_name, f"{cls_name}.{meth}") in names, (mod_name, cls_name, meth)


@pytest.mark.parametrize(
    "dotted", ["coderiv.symmetrize_word", "coderiv.factorization", "coderiv.twisted_adjoint", "jacobian.beta_of_sq"]
)
def test_import_sites_read_by_the_benchmark_tests_are_wrapped(spans, sup, dotted):
    module, attr = dotted.split(".")
    value = getattr(getattr(sup, module), attr)
    assert inspect.isfunction(value)
    assert value in {fn for _, _, fn in spans.targets(sup)}, dotted


@pytest.mark.parametrize("cls", [supersym.TruncatedSeries1, supersym.TruncatedSeries2])
def test_series_classes_define_their_own_product(cls):
    # the tracer wraps vars(cls)["__mul__"] and every alias of it in the class
    own = vars(cls)
    assert "__mul__" in own and own["__rmul__"] is own["__mul__"]
