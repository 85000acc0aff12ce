"""The public API: the explicit export list, the names the benchmark probes,
no unused import, and no scipy on import."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import webnav
import webnav.agents
import webnav.session

PUBLIC = [
    "ModelParams", "TELEPORT", "FORWARD", "BACK",
    "make_agent", "pagerank_step", "bookrank_step", "abc_step",
    "WebGraph", "generate_scale_free", "load_edge_list", "write_edge_list",
    "SessionDescriptor", "SessionTable", "SessionRecorder", "TrafficTally",
    "entropy_bits",
    "LogRecord", "ParseStats", "parse_log", "Sessionizer", "sessionize",
    "LogBinnedHistogram", "PowerLawFit", "histogram", "ccdf",
    "fit_power_law", "fit_geometric_ratio", "ks_statistic",
    "SimConfig", "RunResult", "RunManifest", "simulate", "run_simulation",
    "run_ingest", "compare_runs", "format_comparison",
    "WebnavError", "ConfigurationError", "DataError", "EmptyDataError",
    "ParseError", "ProtocolError", "StatisticsError",
]


def test_all_is_the_explicit_list():
    assert webnav.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in webnav.__all__:
        obj = getattr(webnav, name)
        assert not inspect.ismodule(obj), name


def test_benchmark_probe_names_exist():
    # benchmarks/probes.py looks these up with getattr and reports "absent"
    # instead of failing, so their presence is pinned here
    for name in ("make_agent", "ModelParams", "pagerank_step",
                 "bookrank_step", "abc_step"):
        assert callable(getattr(webnav.agents, name)), name
    graph = webnav.generate_scale_free(50, 2, 2.1, seed=1)
    params = webnav.agents.ModelParams()
    state = webnav.agents.make_agent(0, 1, params)
    step = webnav.agents.pagerank_step(state, graph, params)
    tally = webnav.session.TrafficTally()
    recorder = webnav.session.SessionRecorder(0, tally)
    recorder.record(step)
    assert tally.page_visits == {step[1]: 1}


ROOT = Path(__file__).resolve().parents[1]


def _dotted(node) -> str | None:
    """"a.b.c" of a name or an attribute chain on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def unused_imports(source: str) -> list:
    """Names a module imports at module level and never reads.

    import a.b counts as read when some expression spells a.b.
    """
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            imported += [alias.asname or alias.name for alias in node.names]
    read = {_dotted(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    return [name for name in imported if name not in read]


def test_unused_import_guard_finds_one():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from itertools import chain, islice\nprint(chain, os.path)\n")
    assert unused_imports(source) == ["islice"]
    assert unused_imports("import os.path\nprint(os)\n") == ["os.path"]


def test_no_unused_module_imports():
    # __init__.py imports to re-export
    found = [f"{path.relative_to(ROOT)}: {name}"
             for folder in ("src/webnav", "tests", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))
             if path.name != "__init__.py"
             for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def scopes_where(source: str, match) -> list:
    """Qualified names of the functions and classes holding a node that
    match(node) holds for; "<module>" for module level."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if match(child):
                found.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(found)


def reading_functions(source: str) -> list:
    """Qualified names of the functions that call open to read a file.

    A call to open or to an .open method counts when its mode is absent,
    or is not a string constant holding "w", "a" or "x".
    """
    def reads(call) -> bool:
        if not isinstance(call, ast.Call):
            return False
        func = call.func
        if isinstance(func, ast.Name) and func.id == "open":
            at = 1  # open(file, mode)
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            at = 0  # path.open(mode)
        else:
            return False
        mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                    call.args[at] if len(call.args) > at else None)
        return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and set(mode.value) & set("wax"))

    return scopes_where(source, reads)


def reading_name(source: str, name: str) -> list:
    """Qualified names of the scopes that read name, bare or as an attribute."""
    def reads(node) -> bool:
        spelled = (node.id if isinstance(node, ast.Name)
                   else node.attr if isinstance(node, ast.Attribute) else None)
        return spelled == name and isinstance(node.ctx, ast.Load)

    return scopes_where(source, reads)


def test_reading_functions_guard_finds_them():
    source = ("def a(p):\n    return open(p).read()\n"
              "def b(p):\n    open(p, 'wt').write('')\n"
              "class C:\n    def c(self, p):\n        return p.open(mode='rb')\n"
              "    def d(self, p):\n        return p.open('a')\n")
    assert reading_functions(source) == ["C.c", "a"]


def test_input_files_are_read_in_one_place():
    # errors.input_lines reads the edge list, config, quota and manifest
    # files; a log's bad lines are counted, not rejected; and compare
    # reads the metric files with csv.reader
    found = [f"{path.stem}.{name}"
             for path in sorted((ROOT / "src/webnav").glob("*.py"))
             for name in reading_functions(path.read_text(encoding="utf-8"))]
    assert found == ["errors.input_lines", "run._read_metric_file", "run.run_ingest"]


def test_reading_name_guard_finds_them():
    source = ("CAP = 3\n"
              "def a():\n    return CAP\n"
              "def b(m):\n    m.CAP = 4\n"
              "class C:\n    def c(self, m):\n        return m.CAP + 1\n")
    assert reading_name(source, "CAP") == ["C.c", "a"]


def test_click_cap_is_read_in_three_places():
    # validate bounds p_t by it; simulate binds it into every worker's
    # queue; a recorder made without a cap reads it once
    found = [f"{path.stem}.{name}"
             for path in sorted((ROOT / "src/webnav").glob("*.py"))
             for name in reading_name(path.read_text(encoding="utf-8"),
                                      "MAX_SESSION_CLICKS")]
    assert found == ["run.SimConfig.validate", "run.simulate",
                     "session.SessionRecorder.__init__"]


def test_import_loads_no_scipy():
    # scipy costs about 33 MB of RSS: only load_edge_list imports it, when
    # called, and a fit that needs scipy.special must import it in its body
    code = ("import sys, webnav, webnav.run, webnav.cli\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
