"""Self-test of ``benchmarks/reach.py`` on small sources (about a second).

The full audit runs every product path and takes tens of seconds, so it
is not run here; these tests pin what its reading is made of: which
lines a recording counts, which code objects are function bodies, how
functions are named, which are tagged abstract, how a failing example is
reported, what ``measure`` writes for the real package, and which
functions the ``--check`` ratchet reports.
"""

import ast
import importlib.util
import json
import sys
import textwrap

import pytest

import reach

MODULE = textwrap.dedent(
    """\
    import abc


    def used(x):
        if x:
            return 1
        return 2


    def unused():
        return 3


    class Shape(abc.ABC):
        @abc.abstractmethod
        def area(self):
            ...

        def sides(self):
            \"\"\"Subclasses say.\"\"\"
            raise NotImplementedError

        def name(self):
            label = "shape"
            raise NotImplementedError(label)

        def squares(self, n):
            return sum(i * i for i in range(n)) + sum(map(lambda i: -i, range(n)))

        CORNERS = [i for i in range(4)]


    def outer():
        def inner():
            return 5
        return inner
    """
)


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def package(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "mod.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "outside.py").write_text("def elsewhere():\n    return 4\n", encoding="utf-8")
    return root


def test_recording_counts_the_entered_function_bodies_of_the_package_only(package):
    recorder = reach.LineRecorder(package)
    with recorder.recording():
        module = load(package / "mod.py", "reach_sample_mod")
        outside = load(package.parent / "outside.py", "reach_sample_outside")
        module.used(True)
        outside.elsewhere()
    # Module and class bodies ran under the recording, the class-level
    # comprehension with them, yet only ``used`` was entered; its untaken ``return 2`` (line 7) is not executed.
    assert recorder.entered == {("pkg/mod.py", 4, "used")}
    assert recorder.lines == {"pkg/mod.py": {4, 5, 6}}


def test_recording_puts_back_the_trace_function_it_found(package):
    def outer(frame, event, arg):
        return None

    saved = sys.gettrace()
    sys.settrace(outer)
    try:
        with reach.LineRecorder(package).recording():
            assert sys.gettrace() is not outer
        assert sys.gettrace() is outer
    finally:
        sys.settrace(saved)


def test_function_codes_are_functions_methods_lambdas_and_generator_expressions(package):
    # The class-level list comprehension counts with the class body, where
    # Python 3.12 compiles it inline.
    code = compile(MODULE, str(package / "mod.py"), "exec")
    names = sorted(function.co_name for function in reach._function_codes(code))
    assert names == [
        "<genexpr>", "<lambda>", "area", "inner", "name", "outer", "sides", "squares",
        "unused", "used",
    ]


def test_qualnames_come_from_the_source_keyed_by_first_line_and_name():
    assert reach._qualnames(ast.parse(MODULE)) == {
        (4, "used"): "used",
        (10, "unused"): "unused",
        (15, "area"): "Shape.area",
        (19, "sides"): "Shape.sides",
        (23, "name"): "Shape.name",
        (27, "squares"): "Shape.squares",
        (33, "outer"): "outer",
        (34, "inner"): "outer.<locals>.inner",
    }


def test_abstract_lines_are_abstractmethods_and_raise_only_bodies():
    # ``area`` starts at its decorator (15); ``sides`` only raises after
    # its docstring (19); ``name`` does work before it raises (23).
    assert reach._abstract_lines(ast.parse(MODULE)) == {15, 19}


def test_a_failing_example_raises_with_its_exit_code_and_output(tmp_path):
    script = tmp_path / "example.py"
    script.write_text(
        "import sys\nprint('checked', sys.argv[1:])\nraise SystemExit(int(sys.argv[1]))\n",
        encoding="utf-8",
    )
    argv = list(sys.argv)
    reach._run_example(script, ["0"])
    with pytest.raises(RuntimeError, match=r"example\.py 3 exited 3:\nchecked \['3'\]"):
        reach._run_example(script, ["3"])
    assert sys.argv == argv


@pytest.fixture(scope="module")
def reading():
    """``measure`` over ``src/repro`` after recording one small call."""
    sys.path.insert(0, str(reach.E2E))
    try:
        from repro.analysis import theory

        recorder = reach.LineRecorder(reach.PACKAGE)
        with recorder.recording():
            theory.expected_exchanges_per_cycle()
        return reach.measure(recorder)
    finally:
        sys.path.remove(str(reach.E2E))


def test_measure_counts_the_recorded_call_and_nothing_else(reading):
    total = reading["total"]
    theory = reading["modules"]["repro/analysis/theory.py"]
    assert 0 < theory["executed"] == total["executed"] < theory["executable"]
    assert total["executable"] == sum(m["executable"] for m in reading["modules"].values())
    assert total["never_entered_functions"] == total["functions"] - 1
    never = {(e["module"], e["function"]) for e in reading["never_entered"]}
    assert ("repro/analysis/theory.py", "expected_exchanges_per_cycle") not in never
    assert ("repro/analysis/theory.py", "exchange_count_pmf") in never


def test_measure_tags_tracer_targets_abstract_functions_and_reprs(reading):
    tags = {(e["module"], e["function"]): e["tags"] for e in reading["never_entered"]}
    assert tags[("repro/simulator/cycle_sim.py", "CycleSimulator.run_cycle")] == ["tracer-target"]
    assert "abstract" in tags[("repro/simulator/failures.py", "FailureModel.apply")]
    assert tags[("repro/simulator/cycle_sim.py", "CycleSimulator.__repr__")] == ["repr"]
    assert tags[("repro/analysis/theory.py", "exchange_count_pmf")] == []


def test_the_ratchet_names_untagged_unlisted_functions_by_module_and_qualname():
    committed = {"never_entered": [
        {"module": "repro/a.py", "function": "moved", "line": 10, "lines": 2, "tags": []},
    ]}
    fresh = {"never_entered": [
        {"module": "repro/a.py", "function": "moved", "line": 40, "lines": 2, "tags": []},
        {"module": "repro/a.py", "function": "Shape.area", "line": 50, "lines": 1,
         "tags": ["abstract"]},
        {"module": "repro/b.py", "function": "moved", "line": 10, "lines": 2, "tags": []},
    ]}
    # A listed function that moved passes, a tagged one is never counted,
    # and the same name in another module is a new function.
    assert reach.unlisted_never_entered(committed, fresh) == [fresh["never_entered"][2]]
    assert reach.unlisted_never_entered(fresh, fresh) == []


def test_check_fails_when_a_function_stops_being_entered(reading, tmp_path, monkeypatch, capsys):
    # The committed reading entered one function; a run that enters none
    # leaves it never entered and unlisted, so the check fails naming it.
    committed = tmp_path / "committed.json"
    committed.write_text(json.dumps(reading), encoding="utf-8")
    for name in ("run_figures", "run_examples", "run_workloads"):
        monkeypatch.setattr(reach, name, lambda: None)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert reach.main(["--check", str(committed), str(tmp_path / "fresh.json")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == (
        f"never entered, not in {committed}: "
        "repro/analysis/theory.py expected_exchanges_per_cycle"
    )
    fresh = json.loads((tmp_path / "fresh.json").read_text(encoding="utf-8"))
    assert reach.unlisted_never_entered(fresh, fresh) == []
