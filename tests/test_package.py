import argparse
import ast
import hashlib
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import primehull
from conftest import M_VERTEX_DIGESTS
from primehull import cli
from primehull.analysis import records_from_state
from primehull.persistence import export_csv

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench" / "run.py"
BENCH_WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
PACKAGE = ROOT / "src" / "primehull"

# Every option string of the command and its subcommands, in parser order.
# A new option is a deliberate edit here, not a side effect.
CLI_OPTIONS = {
    "primehull": ["-h", "--help"],
    "compute": [
        "-h", "--help", "--limit", "--checkpoint",
        "--out", "--include-provisional", "--until-k",
    ],
    "analyze": ["-h", "--help", "--in", "--envelope-limit"],
    "lensbounds": ["-h", "--help", "--x-grid", "--out"],
    "mvariant": ["-h", "--help", "--limit", "--out"],
}


def _trees(*dirs):
    return {p: ast.parse(p.read_text()) for d in dirs for p in sorted((ROOT / d).rglob("*.py"))}


def _definitions(tree):
    """(name, node) for each module-level name and each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        else:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item


def _references(tree, skip=None):
    """Names loaded, attributes read and names imported, outside ``skip``."""
    refs = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return refs


def test_package_exports_exactly_what_the_benchmark_calls():
    # The benchmark reaches the program through ``ph.<name>``; every other
    # caller imports from a submodule.
    used = set(re.findall(r"\bph\.(\w+)", BENCH.read_text()))
    submodules = {m.name for m in pkgutil.iter_modules(primehull.__path__)}
    assert set(primehull.__all__) == used - submodules - {"__file__"}
    assert all(hasattr(primehull, name) for name in used)


def test_benchmark_digests_match_the_program(tmp_path, run_1e8):
    # The benchmark counts a run whose output misses its pinned digests as
    # failed; this finds such a change first.  The digests are read, not
    # imported, so that the benchmark's module stays as it is.
    pins = {
        target.id: node.value.value
        for node in ast.parse(BENCH.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("_SHA256")
    }
    # The M digest is the 1e7 pin that test_m_vertex_list_pinned checks.
    limit, _, _, digest = M_VERTEX_DIGESTS[0]
    assert (limit, pins["M_VERTEX_SHA256"]) == (10**7, digest)
    path = tmp_path / "table.csv"
    export_csv(records_from_state(run_1e8.state, include_provisional=True), path, include_provisional=True)
    lines = path.read_text().splitlines()[1:201]
    assert pins["E_CSV200_SHA256"] == hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("workload", BENCH_WORKLOADS)
def test_benchmark_traced_round_passes(workload):
    # A traced round runs the plain job and the traced job and compares
    # their digests, so this covers both against the program's calls.
    record = BENCH.parent / "out" / f"{workload}-seed0-trace1.json"
    try:
        run = subprocess.run(
            [sys.executable, str(BENCH), "--workload", workload, "--seed", "0", "--seconds", "0.1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stdout + run.stderr
        assert json.loads(run.stdout.splitlines()[-1])["correct"] is True
    finally:
        record.unlink(missing_ok=True)


def test_cli_options_are_pinned():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: [opt for action in p._actions for opt in action.option_strings]
        for name, p in [("primehull", parser), *sub.choices.items()]
    }
    assert got == CLI_OPTIONS


def test_every_top_level_definition_is_reached():
    # Tests do not count as callers: a definition only they use is dead
    # code, or a reference check that belongs in tests/oracles.py.  Methods
    # count too; a reference to their name anywhere outside their own body
    # keeps them.
    trees = _trees("src", "perfbench")
    everywhere = {path: _references(tree) for path, tree in trees.items()}
    unreached = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        others = set().union(*(refs for p, refs in everywhere.items() if p != path))
        for name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in others | _references(tree, skip=node):
                unreached.append(f"{path.name}:{node.lineno} {name}")
    assert unreached == []


def test_no_unused_imports():
    unused = []
    for path, tree in _trees("src").items():
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exported = set(ast.literal_eval(node.value))
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded | exported:
                        unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert unused == []


def test_only_the_prime_stream_starts_threads_or_processes():
    # The one concurrency decision, the sieve's worker processes, stays
    # behind one module: no other module imports a thread, process or
    # subprocess module, or names a function of os that starts a process.
    concurrency = {"threading", "_thread", "concurrent", "queue", "multiprocessing", "subprocess"}
    starts_process = re.compile(r"os\.(fork|forkpty|posix_spawnp?|spawn\w*|exec\w*|system|popen)")
    starters = set()
    for path, tree in _trees("src").items():
        # The names os is bound to, as in ``import os as _os``.
        aliases = {
            alias.asname or "os"
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "os"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module.split(".")[0], *(f"{node.module}.{alias.name}" for alias in node.names)]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
                names = [f"os.{node.attr}"]
            else:
                continue
            if any(n in concurrency or starts_process.fullmatch(n) for n in names):
                starters.add(path.relative_to(PACKAGE).as_posix())
    assert starters == {"prime_stream.py"}


def _runtime_imports(tree):
    """Package modules a module imports when it runs: all but ``if TYPE_CHECKING:`` blocks."""
    modules = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("primehull." if node.level else "") + (node.module or "")
            names = [base] if node.module else [base + alias.name for alias in node.names]
        else:
            names = []
        modules.update(n.split(".")[1] for n in names if n.startswith("primehull."))
        stack.extend(ast.iter_child_nodes(node))
    return modules


def test_no_import_inside_a_function():
    local = [
        f"{path.relative_to(ROOT)}:{inner.lineno}"
        for path, tree in _trees("src").items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert local == []


def test_records_import_no_package_module():
    # The record layer sits below the engine: hull_engine, persistence and
    # m_variant import it, so it may import none of them.
    assert _runtime_imports(ast.parse((PACKAGE / "analysis.py").read_text())) == set()


def test_importing_the_package_skips_lens_bounds():
    # lens_bounds serves the lensbounds command and the envelope scan only.
    graph = {path.stem: _runtime_imports(tree) for path, tree in _trees("src").items()}
    seen, todo = set(), ["__init__"]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph[name])
    assert "lens_bounds" not in seen
    assert {"analysis", "hull_engine", "prime_stream", "_seghull"} <= seen
