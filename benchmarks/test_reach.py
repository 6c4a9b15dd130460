"""Self-test of ``benchmarks/reach.py`` on small sources (about a second).

The full audit runs every product path and takes tens of seconds, so it
is not run here; these tests pin what its reading is made of: which
lines a recording counts, which code objects are function bodies, how
functions are named, which are tagged abstract or labelled, how a
failing example is reported, what ``measure`` writes for the real
package, and each rule of the ``--check`` ratchet.
"""

import ast
import importlib.util
import itertools
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
    # ``cycle_sim.py`` is a module-level oracle, ``_serve`` a labelled worker.
    assert tags[("repro/simulator/cycle_sim.py", "CycleSimulator.run_cycle")] == [
        "tracer-target", "oracle",
    ]
    assert "abstract" in tags[("repro/simulator/failures.py", "FailureModel.apply")]
    assert tags[("repro/simulator/cycle_sim.py", "CycleSimulator.__repr__")] == ["repr", "oracle"]
    assert tags[("repro/experiments/runner.py", "_serve")] == ["worker"]
    assert tags[("repro/analysis/theory.py", "exchange_count_pmf")] == []


def test_every_label_in_the_package_gives_a_reason(reading):
    assert reading["label_errors"] == []
    assert all(entry["reason"] for entry in reading["labels"])
    labelled = {(entry["module"], entry["function"]) for entry in reading["labels"]}
    assert ("repro/newscast/protocol.py", "<module>") in labelled
    assert ("repro/core/count.py", "LeaderElection.elect") in labelled


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
    assert (
        f"never entered, not in {committed}: "
        "repro/analysis/theory.py expected_exchanges_per_cycle"
    ) in out
    fresh = json.loads((tmp_path / "fresh.json").read_text(encoding="utf-8"))
    assert reach.unlisted_never_entered(fresh, fresh) == []


LABELLED = textwrap.dedent(
    """\
    import functools

    # reach: oracle — checks above
    def above():
        return 1


    def inline():  # reach: worker: runs in a child
        return 2


    @functools.lru_cache()  # reach: oracle - checks a decorated one
    def decorated():
        def nested():
            return 3
        return nested


    def reasonless():  # reach: oracle
        return 4


    # reach: oracel — misspelt
    def unknown():
        return 5


    def plain():
        return 6
    """
)


def test_labels_are_read_from_markers_and_module_constants():
    labels, errors = reach._labels(ast.parse(LABELLED), LABELLED)
    assert [(e["function"], e["first"], e["last"], e["label"], e["reason"]) for e in labels] == [
        ("above", 4, 5, "oracle", "checks above"),
        ("inline", 8, 9, "worker", "runs in a child"),
        ("decorated", 12, 16, "oracle", "checks a decorated one"),
    ]
    assert errors == [
        "line 19: reasonless is labelled oracle with no reason",
        "line 23: unknown names no known label ('oracel')",
    ]
    module = 'ORACLE = "the reference"\nWORKER = ""\n\ndef f():\n    return 1\n'
    labels, errors = reach._labels(ast.parse(module), module)
    assert [(e["function"], e["first"], e["last"], e["label"]) for e in labels] == [
        ("<module>", 1, 5, "oracle"),
    ]
    assert errors == ["line 2: <module> is labelled worker with no reason"]


BASE = "def used(x):\n    if x:\n        return 1\n    return 2\n"
ADDED = "\n\n{marker}def added():\n    return 3\n"


@pytest.fixture
def audit(package, tmp_path, monkeypatch, capsys):
    """Run ``main`` over ``package``, whose one path calls ``mod.used(True)``.

    ``audit(source, committed)`` writes ``source`` as ``mod.py`` and returns
    the exit code, the fresh reading and what was printed.
    """
    monkeypatch.setattr(reach, "PACKAGE", package)
    monkeypatch.setattr(sys, "path", list(sys.path))
    for name in ("run_examples", "run_workloads"):
        monkeypatch.setattr(reach, name, lambda: None)
    names = (f"reach_audit_mod_{index}" for index in itertools.count())
    (package / "ref.py").write_text(
        'ORACLE = "checks used"\n\n\ndef reference(x):\n    return 1 if x else 2\n',
        encoding="utf-8",
    )

    def run(source, committed=None):
        (package / "mod.py").write_text(source, encoding="utf-8")
        monkeypatch.setattr(
            reach, "run_figures", lambda: load(package / "mod.py", next(names)).used(True)
        )
        out = tmp_path / "fresh.json"
        argv = [str(out)]
        if committed is not None:
            (tmp_path / "committed.json").write_text(json.dumps(committed), encoding="utf-8")
            argv += ["--check", str(tmp_path / "committed.json")]
        capsys.readouterr()
        code = reach.main(argv)
        return code, json.loads(out.read_text(encoding="utf-8")), capsys.readouterr().out

    return run


def test_a_labelled_never_entered_function_passes(audit):
    _, committed, _ = audit(BASE)
    code, fresh, out = audit(BASE + ADDED.format(marker="# reach: oracle — checks used\n"), committed)
    assert code == 0, out
    tags = {(e["module"], e["function"]): e["tags"] for e in fresh["never_entered"]}
    assert tags[("pkg/mod.py", "added")] == ["oracle"]
    assert tags[("pkg/ref.py", "reference")] == ["oracle"]


def test_an_unlabelled_unlisted_function_fails(audit, tmp_path):
    _, committed, _ = audit(BASE)
    code, _, out = audit(BASE + ADDED.format(marker=""), committed)
    assert code == 1
    assert f"never entered, not in {tmp_path / 'committed.json'}: pkg/mod.py added" in out


def test_a_label_with_no_reason_fails(audit):
    _, committed, _ = audit(BASE)
    code, fresh, out = audit(BASE + ADDED.format(marker="# reach: oracle —\n"), committed)
    assert code == 1
    assert fresh["label_errors"] == ["pkg/mod.py line 7: added is labelled oracle with no reason"]
    assert "label error: pkg/mod.py line 7: added is labelled oracle with no reason" in out


def test_unlabelled_reach_below_the_committed_reading_fails(audit, tmp_path):
    # ``used`` runs 3 of its 4 lines; one more untaken line makes it 3 of 5.
    _, committed, _ = audit(BASE)
    code, _, out = audit(BASE.replace("    return 2", "    x += 1\n    return 2"), committed)
    assert code == 1
    assert out.splitlines()[-1] == (
        f"unlabelled reach 3/5 is below {tmp_path / 'committed.json'}'s 3/4"
    )
    assert audit(BASE, committed)[0] == 0


def test_labelled_lines_leave_the_unlabelled_figure(audit):
    _, fresh, _ = audit(BASE + ADDED.format(marker="# reach: oracle — checks used\n"))
    total = fresh["total"]
    # ``reference`` (module-level ORACLE) and ``added`` hold two lines each.
    assert total["labelled"] == {"executed": 0, "executable": 4, "functions": 2}
    assert total["executable"] == 8
    assert total["unlabelled"] == {
        "executed": 3, "executable": 4, "reach": 0.75,
        "never_entered_untagged_functions": 0, "never_entered_untagged_lines": 0,
    }
    assert fresh["modules"]["pkg/ref.py"]["labelled"] == 2


def unlabelled(executed, executable):
    return {"total": {"unlabelled": {"executed": executed, "executable": executable}}}


@pytest.mark.parametrize(
    "committed, fresh, below",
    [
        (unlabelled(3, 4), unlabelled(6, 8), False),
        (unlabelled(3, 4), unlabelled(7, 8), False),
        (unlabelled(3, 4), unlabelled(5, 8), True),
        # Both round to 0.6667, yet 66,666 of 100,000 is below two thirds.
        (unlabelled(2, 3), unlabelled(66_666, 100_000), True),
        # A reading from before the labels has no unlabelled total.
        ({"total": {"reach": 0.9}}, unlabelled(1, 4), False),
    ],
    ids=["same-ratio", "above", "below", "below-within-rounding", "no-unlabelled-total"],
)
def test_the_floor_compares_exact_line_counts(committed, fresh, below):
    assert reach.below_floor(committed, fresh) is below


NESTED = textwrap.dedent(
    """\
    class Engine:
        def step(self):  # reach: oracle — checks the step
            # reach: worker — runs in a child
            def child():
                return 1
            return child


    def body_only():
        value = 2  # reach: oracle — a body line labels nothing
        return value
    """
)


def test_a_method_and_a_nested_def_are_labelled_innermost_first():
    labels, errors = reach._labels(ast.parse(NESTED), NESTED)
    assert errors == []
    assert [(e["function"], e["first"], e["last"], e["label"]) for e in labels] == [
        ("Engine.step.<locals>.child", 4, 5, "worker"),
        ("Engine.step", 2, 6, "oracle"),
    ]


def test_a_marker_on_a_body_line_labels_nothing():
    labels, _ = reach._labels(ast.parse(NESTED), NESTED)
    assert "body_only" not in {entry["function"] for entry in labels}


def test_a_module_label_that_is_not_a_string_gives_no_reason():
    module = "ORACLE = 1\n\n\ndef f():\n    return 1\n"
    labels, errors = reach._labels(ast.parse(module), module)
    assert labels == []
    assert errors == ["line 1: <module> is labelled oracle with no reason"]
