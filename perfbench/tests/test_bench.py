"""Self-tests of the benchmark's own arithmetic, oracles and patching.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import importlib  # noqa: E402

import jobs  # noqa: E402
import oracles  # noqa: E402
import worker  # noqa: E402
from tracer import LAYERS, METHODS, Tracer  # noqa: E402


def add_span(tracer, name_id, start, end, parent, outer=True):
    tracer.span_name.append(name_id)
    tracer.span_parent.append(parent)
    tracer.span_outer.append(outer)
    tracer.span_start.append(start)
    tracer.span_end.append(end)
    return len(tracer.span_start) - 1


def test_self_time_of_nested_spans():
    tracer = Tracer()
    outer = tracer._intern("characteristic", "cohomology_space")
    solve = tracer._intern("linalg", "solve_linear")
    diff = tracer._intern("cochains", "ce_differential")
    root = add_span(tracer, outer, 0.0, 10.0, -1)
    first = add_span(tracer, solve, 1.0, 4.0, root)
    add_span(tracer, diff, 2.0, 3.0, first)
    add_span(tracer, solve, 5.0, 9.0, root)
    add_span(tracer, outer, 11.0, 12.0, -1)
    out = tracer.take()
    assert out["characteristic.self_s"] == (10 - 3 - 4) + 1
    assert out["linalg.self_s"] == (3 - 1) + 4
    assert out["cochains.self_s"] == 1
    assert out["characteristic.calls"] == 2
    assert out["linalg.solve_linear.calls"] == 2
    assert out["linalg.solve_linear.s"] == 3 + 4
    assert len(tracer.span_start) == 0


def test_inclusive_time_counts_only_outermost_spans_of_a_name():
    tracer = Tracer()
    rref = tracer._intern("linalg", "rref")
    root = add_span(tracer, rref, 0.0, 4.0, -1)
    add_span(tracer, rref, 1.0, 2.0, root, outer=False)
    out = tracer.take()
    assert out["linalg.rref.s"] == 4
    assert out["linalg.self_s"] == 4
    assert out["linalg.rref.calls"] == 2


def test_heisenberg_betti_oracle():
    assert oracles.heisenberg_betti(1) == [1, 2, 2, 1]
    assert oracles.heisenberg_betti(2) == [1, 4, 5, 5, 4, 1]
    assert oracles.heisenberg_betti(4)[2:5] == [27, 48, 42]


def test_euler_characteristic_vanishes_for_positive_dimension():
    assert oracles.euler_characteristic(5, 5) == 0
    assert oracles.euler_characteristic(0, 3) == 3


def test_theorem_sign_oracle():
    assert oracles.check_theorem_signs([(True, 0), (True, 1)]) == []
    assert oracles.check_theorem_signs([(True, 0)])
    assert oracles.check_theorem_signs([(True, 1), (False, None)])


def _bindings():
    modules = [importlib.import_module("liechar")] + [
        importlib.import_module(f"liechar.{layer}") for layer in LAYERS]
    seen = {}
    for module in modules:
        for name, obj in vars(module).items():
            seen[(module.__name__, name)] = obj
    for layer, classes in METHODS.items():
        module = importlib.import_module(f"liechar.{layer}")
        for cls_name, methods in classes.items():
            for meth in methods:
                seen[(cls_name, meth)] = vars(getattr(module, cls_name))[meth]
    return seen


def test_traced_run_restores_every_binding():
    lib = worker.load_library("cli_session")
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert lib.liechar.characteristic.solve_linear is not before[
            ("liechar.characteristic", "solve_linear")]
        assert lib.liechar.extensions.solve_linear is not before[
            ("liechar.extensions", "solve_linear")]
        space = lib.liechar.cohomology_space(
            lib.liechar.heisenberg3(), lib.liechar.trivial_representation(
                lib.liechar.heisenberg3(), 1), 1)
        assert space.h_dim == 2
        code, _ = jobs.run_cli(lib, ["validate", str(BENCH_DIR / "data" / "missing.json")])
        assert code == 2
        counts = tracer.take()
        assert counts["characteristic.cohomology_space.calls"] == 1
        assert counts["linalg.calls"] > 0
        assert counts["cli.run_command.calls"] == 1
    finally:
        tracer.uninstall()
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


def test_recorded_answers_cover_new_json_keys_only():
    expected = {"a": 1, "b": [{"c": "2"}]}
    assert worker.covers({"a": 1, "b": [{"c": "2", "d": 0}], "e": 3}, expected)
    assert not worker.covers({"a": 1, "b": [{"c": "3"}]}, expected)
    assert not worker.covers({"a": 1}, expected)
