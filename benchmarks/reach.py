#!/usr/bin/env python
"""Which lines of ``src/repro`` do the product paths execute?

Runs every product path in this one process under ``sys.settrace``:

* every ``ALL_FIGURES`` entry at ``BENCH``;
* every example as CI invokes it, under ``REPRO_SCALE=smoke``.
  ``overlay_build_costs.py`` builds each family at N=50,000, in this
  process (CI runs each build in a child interpreter, at N=10^5 and 10^6),
  ``stacked_repeats_cost.py`` runs its point at N=2000 (its memory limit
  is for a fresh process at N=10^5), and ``adaptive_figure_cost.py`` is
  skipped (see :data:`SKIPPED`);
* the six end-to-end workloads of ``benchmarks/e2e/workloads.py`` at their
  ``TINY`` sizes, each unit checked as the harness checks it.

It writes ``REACH.json``: executed and executable lines per module, and
every named function no path entered.  Only function-body lines count
(module and class bodies run on import).  Each never-entered function is
tagged ``tracer-target`` (named by ``TARGETS`` in
``benchmarks/e2e/tracing.py``), ``abstract`` (``@abstractmethod`` or a
body that only raises ``NotImplementedError``) or ``repr``.  Standard
library only; it raises if any path fails.

Two labels, read from the source, set code apart that no product path
should enter; neither does anything at run time:

* ``oracle``: a reference that tests compare a product path against;
* ``worker``: a function that only a forked worker process enters.

A module-level ``ORACLE = "<what it checks>"`` (or ``WORKER = ...``)
labels every function of its module; a ``# reach: oracle — <what it
checks>`` comment on a ``def`` line, or on the line just above it, labels
that function and the code it nests.  A label is also a tag of its
never-entered functions, and its lines count apart: the ``unlabelled``
total is the reach of everything else.

Functions are keyed by their first line and name and named by their
qualified name in the source, so the keys are the same on every Python
from 3.10.  Line tables still differ a little between interpreter
versions; compare two readings only if their manifests name the same
``python``.

``--check COMMITTED`` is a ratchet on dead code: after writing the new
reading it fails if

* an untagged never-entered function is missing from the
  ``never_entered`` list of the ``COMMITTED`` reading (read before the
  run, so it may be the output file too).  Functions are matched by
  module and qualified name, never by line, so moving code does not trip
  it; a function that stops being entered, or a new one no path enters,
  must be deleted, wired, labelled or committed in a new reading;
* a label gives no reason, or names no known label;
* unlabelled reach falls below the ``COMMITTED`` reading's.

Run with:  python benchmarks/reach.py [out.json] [--check REACH.json]
           (out.json defaults to REACH.json)
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import platform
import re
import runpy
import sys
import time
from pathlib import Path
from types import CodeType
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
E2E = ROOT / "benchmarks" / "e2e"

SEED = 2004
#: N of the stacked repeats example run in this process.
EXAMPLE_SIZE = 2_000
#: N of the overlay builds run in this process: above 46,340, so the
#: edge-list kernel works in several row bands, as in CI's builds.
BUILD_SIZE = 50_000
CO_OPTIMIZED = 0x1  # set on function, lambda and comprehension code, never on module or class bodies
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>"}

#: ``argv`` lists per example, as ``.github/workflows/ci.yml`` runs them.
EXAMPLES: Dict[str, List[List[str]]] = {
    "quickstart.py": [[]],
    "load_monitoring.py": [[]],
    "network_size_monitoring.py": [[]],
    "reproduce_figures.py": [["all"]],
    "topology_comparison.py": [[]],
    "robustness_grid.py": [[]],  # CI also names a file for its JSON summary
}
SKIPPED = {
    "adaptive_figure_cost.py": (
        'it runs ALL_FIGURES["adaptive"] and ["adaptive-async"] at N=10^5; '
        "the figure pass runs both at BENCH"
    ),
}

#: The labels; the module docstring says what each marks and how one is written.
LABELS = ("oracle", "worker")
MARKER = re.compile(r"#\s*reach:\s*(\w*)(.*)")

Key = Tuple[str, int, str]  # (module path under src/, first line, name)


class LineRecorder:
    """``sys.settrace`` hooks recording entered functions and executed lines of one package."""

    def __init__(self, package: Path) -> None:
        self._prefix = str(package.resolve()) + os.sep
        self._root = package.resolve().parent
        self._modules: Dict[str, object] = {}  # co_filename -> module path, or None
        self.entered: Set[Key] = set()
        self.lines: Dict[str, Set[int]] = {}

    def _module(self, filename: str):
        if filename not in self._modules:
            path = os.path.realpath(filename)
            self._modules[filename] = (
                Path(path).relative_to(self._root).as_posix()
                if path.startswith(self._prefix)
                else None
            )
        return self._modules[filename]

    def _on_call(self, frame, event, arg):
        code = frame.f_code
        # Module and class bodies run their ``def`` lines, which are also
        # the first line of each function: leave them out, and the
        # comprehensions they hold with them (see ``_function_codes``).
        if not code.co_flags & CO_OPTIMIZED or (
            code.co_name in COMPREHENSIONS and not frame.f_back.f_code.co_flags & CO_OPTIMIZED
        ):
            return None
        module = self._module(code.co_filename)
        if module is None:
            return None
        self.entered.add((module, code.co_firstlineno, code.co_name))
        lines = self.lines.setdefault(module, set())
        lines.add(code.co_firstlineno)

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    @contextlib.contextmanager
    def recording(self) -> Iterator[None]:
        previous = sys.gettrace()
        sys.settrace(self._on_call)
        try:
            yield
        finally:
            sys.settrace(previous)


def _function_codes(code: CodeType) -> Iterator[CodeType]:
    """Every function-like code object nested in ``code``.

    A list, set or dict comprehension in a module or class body counts with
    that body, as Python 3.12 compiles it inline there (PEP 709); in a
    function its lines count on every version, in its own code object or in
    the function's.
    """
    function = code.co_flags & CO_OPTIMIZED
    for constant in code.co_consts:
        if isinstance(constant, CodeType):
            inlined = constant.co_name in COMPREHENSIONS and not function
            if constant.co_flags & CO_OPTIMIZED and not inlined:
                yield constant
            yield from _function_codes(constant)


def _first_line(node: ast.AST) -> int:
    """``co_firstlineno`` of a ``def``: its first decorator, else the ``def`` line."""
    return min([node.lineno] + [decorator.lineno for decorator in node.decorator_list])


def _qualnames(tree: ast.AST) -> Dict[Tuple[int, str], str]:
    """``(first line, name) -> __qualname__`` of every ``def`` in ``tree``."""
    names = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names[(_first_line(child), child.name)] = prefix + child.name
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return names


def _abstract_lines(tree: ast.AST) -> Set[int]:
    """First lines (first decorator, else ``def``) of the abstract functions in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        decorators = {
            getattr(decorator, "attr", getattr(decorator, "id", None))
            for decorator in node.decorator_list
        }
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        raises_only = (
            len(body) == 1
            and isinstance(body[0], ast.Raise)
            and "NotImplementedError" in ast.unparse(body[0])
        )
        if "abstractmethod" in decorators or raises_only:
            found.add(_first_line(node))
    return found


def _labels(tree: ast.Module, source: str) -> Tuple[List[dict], List[str]]:
    """The labels of one module, innermost span first, and its malformed ones.

    Each label is ``{"function", "first", "last", "label", "reason"}``:
    ``function`` is a qualified name, or ``<module>`` for a module-level
    label, whose span is the whole file.  A label with no reason, or with
    an unknown name, is reported instead of applied.
    """
    lines = source.splitlines()
    labels: List[dict] = []
    errors: List[str] = []

    def add(function: str, span: Tuple[int, int], label: str, reason: str, line: int) -> None:
        if label not in LABELS:
            errors.append(f"line {line}: {function} names no known label ({label!r})")
        elif not reason:
            errors.append(f"line {line}: {function} is labelled {label} with no reason")
        else:
            labels.append({"function": function, "first": span[0], "last": span[1],
                           "label": label, "reason": reason})

    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.lower() in LABELS
        ):
            value = node.value.value if isinstance(node.value, ast.Constant) else None
            reason = value.strip() if isinstance(value, str) else ""
            add("<module>", (1, len(lines)), node.targets[0].id.lower(), reason, node.lineno)
    qualnames = _qualnames(tree)
    defs = [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    # A marker just above a nested def is that def's, not its enclosing def's.
    above = {_first_line(node) - 1 for node in defs}
    for node in defs:
        first = _first_line(node)
        # The line above the def, and every line of its header.
        for line in range(max(first - 1, 1), max(node.body[0].lineno, node.lineno + 1)):
            if line >= first and line in above:
                continue
            match = MARKER.search(lines[line - 1])
            if match:
                add(qualnames[first, node.name], (first, node.end_lineno), match[1],
                    match[2].strip(" \t—–-:"), line)
    labels.sort(key=lambda entry: entry["last"] - entry["first"])
    return labels, errors


def _tracer_targets() -> Set[Key]:
    """The functions ``tracing.TARGETS`` resolves to (call after every path has run)."""
    import tracing

    keys = set()
    for _, target, _ in tracing.TARGETS:
        for function in tracing._resolve(target):
            code = function.__code__
            path = Path(os.path.realpath(code.co_filename))
            if path.is_relative_to(PACKAGE.resolve()):
                keys.add(
                    (path.relative_to(PACKAGE.resolve().parent).as_posix(),
                     code.co_firstlineno, code.co_name)
                )
    return keys


def run_figures() -> None:
    from repro.experiments import ALL_FIGURES, BENCH

    for figure_id, figure in ALL_FIGURES.items():
        if not figure(BENCH).rows:
            raise RuntimeError(f"figure {figure_id} returned no rows")


def _run_example(path: Path, argv: List[str]) -> None:
    saved = sys.argv
    sys.argv = [str(path)] + argv
    output = io.StringIO()
    try:
        with contextlib.redirect_stdout(output):
            runpy.run_path(str(path), run_name="__main__")
    except SystemExit as stop:
        if stop.code not in (None, 0):
            raise RuntimeError(
                f"{path.name} {' '.join(argv)} exited {stop.code}:\n{output.getvalue()[-2000:]}"
            ) from None
    finally:
        sys.argv = saved


def run_examples() -> None:
    examples = ROOT / "examples"
    scripts = sorted(path.name for path in examples.glob("*.py"))
    sized = {"overlay_build_costs.py", "stacked_repeats_cost.py"}
    unknown = set(scripts) - set(EXAMPLES) - set(SKIPPED) - sized
    if unknown:
        raise RuntimeError(f"no invocation listed for {sorted(unknown)}")
    saved = os.environ.get("REPRO_SCALE")
    os.environ["REPRO_SCALE"] = "smoke"
    try:
        for name in scripts:
            for argv in EXAMPLES.get(name, []):
                _run_example(examples / name, argv)
        builds = runpy.run_path(str(examples / "overlay_build_costs.py"))
        for family in builds["SPECS"]:
            builds["build_one"](family, BUILD_SIZE)
        runpy.run_path(str(examples / "stacked_repeats_cost.py"))["run"](EXAMPLE_SIZE)
    finally:
        if saved is None:
            del os.environ["REPRO_SCALE"]
        else:
            os.environ["REPRO_SCALE"] = saved


def run_workloads() -> None:
    import workloads

    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class(SEED, **workload_class.TINY)
        workload.setup()
        workload.warm_up()
        for index in range(workload.params["units"]):
            problems = workload.check(workload.unit(workload.inputs(index)))
            if problems:
                raise RuntimeError(f"workload {name} unit {index}: {problems}")


def measure(recorder: LineRecorder) -> Dict[str, object]:
    """Executable vs executed function-body lines per module, the labels and the unentered functions."""
    targets = _tracer_targets()
    modules = {}
    never_entered = []
    all_labels = []
    label_errors = []
    functions = labelled_functions = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE.parent).as_posix()
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        abstract = _abstract_lines(tree)
        qualnames = _qualnames(tree)
        labels, errors = _labels(tree, source)
        all_labels += [
            {"module": module, "function": entry["function"], "label": entry["label"],
             "reason": entry["reason"]}
            for entry in labels
        ]
        label_errors += [f"{module} {error}" for error in errors]
        executed = recorder.lines.get(module, set())
        executable: Set[int] = set()
        labelled: Set[int] = set()
        for code in _function_codes(compile(source, str(path), "exec")):
            # The first line counts as the recorder counts it; before 3.11
            # no instruction of a function sits on its ``def`` line.
            body = {line for _, _, line in code.co_lines() if line is not None}
            body.add(code.co_firstlineno)
            executable |= body
            label = next(
                (entry["label"] for entry in labels
                 if entry["first"] <= code.co_firstlineno <= entry["last"]),
                None,
            )
            if label:
                labelled |= body
            if code.co_name.startswith("<"):
                continue
            functions += 1
            labelled_functions += bool(label)
            key = (module, code.co_firstlineno, code.co_name)
            if key in recorder.entered:
                continue
            tags = [
                tag
                for tag, applies in (
                    ("tracer-target", key in targets),
                    ("abstract", code.co_firstlineno in abstract),
                    ("repr", code.co_name == "__repr__"),
                    (label, bool(label)),
                )
                if applies
            ]
            never_entered.append(
                {"module": module, "function": qualnames[code.co_firstlineno, code.co_name],
                 "line": key[1],
                 "lines": len(body), "tags": tags}
            )
        hit = len(executable & executed)
        modules[module] = {
            "executed": hit,
            "executable": len(executable),
            "reach": round(hit / len(executable), 4) if executable else None,
            "labelled": len(labelled),
            "labelled_executed": len(labelled & executed),
        }
    executed = sum(entry["executed"] for entry in modules.values())
    executable = sum(entry["executable"] for entry in modules.values())
    labelled_lines = sum(entry["labelled"] for entry in modules.values())
    labelled_executed = sum(entry["labelled_executed"] for entry in modules.values())
    never_entered.sort(key=lambda entry: (entry["module"], entry["line"]))
    untagged = [entry for entry in never_entered if not entry["tags"]]
    return {
        "total": {
            "executed": executed,
            "executable": executable,
            "reach": round(executed / executable, 4),
            "functions": functions,
            "never_entered_functions": len(never_entered),
            "never_entered_lines": sum(entry["lines"] for entry in never_entered),
            "labelled": {
                "executed": labelled_executed,
                "executable": labelled_lines,
                "functions": labelled_functions,
            },
            "unlabelled": {
                "executed": executed - labelled_executed,
                "executable": executable - labelled_lines,
                "reach": round(
                    (executed - labelled_executed) / (executable - labelled_lines), 4
                ),
                "never_entered_untagged_functions": len(untagged),
                "never_entered_untagged_lines": sum(entry["lines"] for entry in untagged),
            },
        },
        "modules": modules,
        "labels": sorted(all_labels, key=lambda entry: (entry["module"], entry["function"])),
        "label_errors": label_errors,
        "never_entered": never_entered,
    }


def unlisted_never_entered(committed: Dict[str, object], fresh: Dict[str, object]) -> List[dict]:
    """The untagged never-entered functions of ``fresh`` that ``committed`` does not list."""
    listed = {(entry["module"], entry["function"]) for entry in committed["never_entered"]}
    return [
        entry
        for entry in fresh["never_entered"]
        if not entry["tags"] and (entry["module"], entry["function"]) not in listed
    ]


def below_floor(committed: Dict[str, object], fresh: Dict[str, object]) -> bool:
    """Whether ``fresh``'s unlabelled reach is below ``committed``'s (exact, from line counts)."""
    old = committed["total"].get("unlabelled")
    new = fresh["total"]["unlabelled"]
    return old is not None and (
        new["executed"] * old["executable"] < old["executed"] * new["executable"]
    )


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="reach audit of the product paths")
    parser.add_argument("out", nargs="?", type=Path, default=ROOT / "REACH.json")
    parser.add_argument(
        "--check", type=Path, metavar="COMMITTED",
        help="fail if an untagged never-entered function is missing from this reading, "
        "a label gives no reason, or unlabelled reach falls below this reading's",
    )
    args = parser.parse_args(argv)
    out = args.out
    committed = json.loads(args.check.read_text(encoding="utf-8")) if args.check else None
    sys.path[:0] = [str(ROOT / "src"), str(E2E)]
    recorder = LineRecorder(PACKAGE)
    walls = {}
    for name, run in (
        ("figures", run_figures), ("examples", run_examples), ("workloads", run_workloads)
    ):
        started = time.perf_counter()
        with recorder.recording():
            run()
        walls[name] = round(time.perf_counter() - started, 1)
        print(f"{name}: {walls[name]} s traced", file=sys.stderr)
    import numpy

    report = {
        "manifest": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "paths": {
                "figures": "every ALL_FIGURES entry at BENCH",
                "examples": "examples/*.py as CI runs them, REPRO_SCALE=smoke, "
                f"overlay builds at N={BUILD_SIZE}, stacked repeats at N={EXAMPLE_SIZE}",
                "workloads": f"benchmarks/e2e/workloads.py WORKLOADS at TINY, seed {SEED}",
            },
            "skipped": SKIPPED,
            "traced_wall_s": walls,
        },
        **measure(recorder),
    }
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    total = report["total"]
    labelled, unlabelled = total["labelled"], total["unlabelled"]
    print(
        f"reach {total['reach']:.1%}: {total['executed']} of {total['executable']} "
        f"function-body lines; {total['never_entered_functions']} of {total['functions']} "
        f"named functions never entered ({total['never_entered_lines']} lines); wrote {out}"
    )
    print(
        f"unlabelled reach {unlabelled['reach']:.1%}: {unlabelled['executed']} of "
        f"{unlabelled['executable']} lines; {unlabelled['never_entered_untagged_functions']} "
        f"never-entered functions neither tagged nor labelled "
        f"({unlabelled['never_entered_untagged_lines']} lines); labelled: "
        f"{labelled['functions']} functions, {labelled['executable']} lines"
    )
    for name, reason in SKIPPED.items():
        print(f"skipped {name}: {reason}")
    for error in report["label_errors"]:
        print(f"label error: {error}")
    if committed is None:
        return 0
    unlisted = unlisted_never_entered(committed, report)
    for entry in unlisted:
        print(f"never entered, not in {args.check}: {entry['module']} {entry['function']}")
    floor = below_floor(committed, report)
    if floor:
        print(
            f"unlabelled reach {unlabelled['executed']}/{unlabelled['executable']} is below "
            f"{args.check}'s {committed['total']['unlabelled']['executed']}/"
            f"{committed['total']['unlabelled']['executable']}"
        )
    return 1 if unlisted or report["label_errors"] or floor else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
