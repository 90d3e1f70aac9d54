"""The benchmark's hold on the package.

perfbench/ reaches into k3auto by module attribute: the tracer wraps the
SPANNED callables by name, and the maps workload builds its translation
models through the name ``UniPoly``.  A rename in k3auto breaks the benchmark
without breaking any other test, so these checks run the benchmark's own
code against the package.
"""
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_spanned_path_resolves():
    for module_name, path in tracing.SPANNED:
        obj = importlib.import_module(f"k3auto.{module_name}")
        for part in path.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{module_name}.{path}"


def test_first_maps_round_runs_its_translation_jobs():
    first_round = next(workloads.maps_rounds(1))
    translations = [job for job in first_round if job.kind == "translation"]
    assert len(translations) == len(workloads.TRANSLATION_STRATA)
    for job in translations:
        assert job.check(job.run()) is None


def test_graphs_round_does_the_same_work_on_a_second_pass(monkeypatch):
    # The traced run compares the span count of _saturate with its cProfile
    # count from a second pass over the same jobs in the same process, so
    # whatever enumeration keeps between calls must leave the saturations and
    # transports of each pass unchanged.
    from k3auto import rigidity

    calls = {}
    for name in ("_saturate", "_transport"):
        original = getattr(rigidity, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(rigidity, name, counted)
    first_round = next(workloads.graphs_rounds(1))
    passes = []
    for _ in range(2):
        calls.update(_saturate=0, _transport=0)
        for job in first_round:
            assert job.check(job.run()) is None, job.kind
        passes.append(dict(calls))
    assert passes[0] == passes[1]
    assert passes[0]["_saturate"] > 0


def test_maps_round_does_the_same_work_on_a_second_pass(monkeypatch):
    # The traced run compares span counts with cProfile counts from a second
    # pass over the same jobs in the same process.  The fixture maps keep
    # their cleared equations between jobs, so the second pass may read what
    # the first built, but it must make the same checks, compositions and
    # gcds.
    from k3auto import funfield, polyring

    first_round = next(workloads.maps_rounds(1))
    calls = {}
    for module, name in ((funfield, "verify_morphism"), (funfield, "compose"),
                         (polyring, "multi_gcd")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    passes = []
    for _ in range(2):
        calls.update(verify_morphism=0, compose=0, multi_gcd=0)
        for job in first_round:
            assert job.check(job.run()) is None, job.kind
        passes.append(dict(calls))
    assert passes[0] == passes[1]
    assert passes[0]["verify_morphism"] > 0
