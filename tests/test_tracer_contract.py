"""The benchmark tracer still fits the package.

benchmarks/spans.py finds the traced methods through the class
dictionaries and wraps every public module function under a unique
`<module>.<name>` label; moving a traced method or adding a public name
that collides with a traced one breaks `benchmarks/run.py --trace 1`.
This test loads spans.py as it is, installs its Tracer around one
decision, one search and one stem decomposition, and checks that every
reported metric is there.
"""

import importlib.util
import pathlib
import time

import homsuper.cli  # noqa: F401  (the tracer wraps every traced module)
from homsuper import isoclinism

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "homsuper_benchmark_spans", REPO_ROOT / "benchmarks" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reports_every_metric(algebras):
    spans = load_spans()
    original = isoclinism.isoclinic_decide
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert isoclinism.isoclinic_decide is not original
        tracer.on = True
        start = time.perf_counter()
        verdict, witness = isoclinism.isoclinic_decide(algebras["hs"], algebras["hs2"])
        # decide meets neither the search nor the stem decomposition
        isoclinism.iso_search(algebras["hs"], algebras["hs"])
        isoclinism.stem_decompose(algebras["hs2"])
        elapsed = time.perf_counter() - start
        tracer.on = False
    finally:
        tracer.uninstall()
    assert isoclinism.isoclinic_decide is original
    assert verdict == "isoclinic" and witness is not None
    metrics = tracer.metrics(elapsed)
    for name in spans.REPORTED:
        assert f"{name}.calls" in metrics and f"{name}.self_s" in metrics
    for name in ("isoclinism.iso_search", "isoclinism.stem_decompose",
                 "core.bracket", "linalg.rref"):
        assert metrics[f"{name}.calls"][0] > 0, name
