"""Rules with one owner: each test fails if a second copy of the rule comes back."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import willingness_gossip
from willingness_gossip import impact, kernels, spectral

SRC = Path(willingness_gossip.__file__).parent


def owners(match):
    """(file, innermost enclosing function) of every node in ``src/`` for which ``match`` holds."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # node -> innermost enclosing function: ast.walk visits outer functions first
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                owner.update((node, func.name) for node in ast.walk(func))
        found += [(path.name, owner.get(node)) for node in ast.walk(tree) if match(node)]
    return found


def test_every_dense_solve_goes_through_one_helper():
    """``meanfield._solve`` holds the one ``linalg.solve`` call in the package."""
    calls = owners(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func).endswith("linalg.solve"))
    assert calls == [("meanfield.py", "_solve")]


def test_no_dense_identity_outside_the_reference_fundamental_matrix():
    """``meanfield.fundamental_matrix``, a reference routine the report never calls, holds the one ``np.eye``.

    Every system the report solves is built in one buffer, without an n x n identity beside it.
    """
    eyes = owners(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func).endswith((".eye", ".identity")))
    assert eyes == [("meanfield.py", "fundamental_matrix")]


def test_one_function_rounds_to_12_significant_digits():
    """``impact.round12`` is the one ``float(f"{v:.12g}")``: the JSON report and the CSV ranking share it.

    An f-string with ``.12g`` that is not turned back into a float is display text, which this allows.
    """
    def rounds(node):
        return (
            isinstance(node, ast.Call) and ast.unparse(node.func) == "float" and len(node.args) == 1
            and isinstance(node.args[0], ast.JoinedStr) and ".12g" in ast.unparse(node.args[0])
        )

    assert owners(rounds) == [("impact.py", "round12")]


def test_round12_is_called_by_the_renderer_and_the_ranking_alone():
    """``report._float_text`` writes every float of a report, the verdict's note included; ``rank_clients`` sorts by it."""
    calls = owners(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "round12")
    assert sorted(calls) == [("impact.py", "rank_clients"), ("report.py", "_float_text")]


def test_report_spells_no_mixing_class_or_tier():
    """The report compares against ``spectral.FAST``/``SLOW`` and ``impact.TIER_*``; it writes none of them again."""
    labels = {spectral.FAST, spectral.SLOW} | {
        value for name, value in vars(impact).items() if name.startswith("TIER_")
    }
    tree = ast.parse((SRC / "report.py").read_text(encoding="utf-8"))
    literals = [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in labels
    ]
    assert len(labels) == 5 and literals == []


def test_gossip_chunk_appends_records_only_at_marks():
    """The kernel records the marks a replica passes; ``gossip._run`` alone writes the slot-0 and final states."""
    chunk = next(
        node for node in ast.walk(ast.parse((SRC / "kernels.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "gossip_chunk"
    )
    appends = [
        ast.unparse(node) for node in ast.walk(chunk)
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(".append")
        and ast.unparse(node.func).startswith("records")
    ]
    assert appends == ["records[q].append((mark, spread, w.copy()))"]


def test_one_rule_names_every_flags_variable():
    """``cli.resolve_config`` derives each flag's ``WG_*`` variable from the flag, from the one ``"WG_"`` prefix.

    ``build_parser`` spells out ``WG_NETWORK`` alone: a set variable makes ``--network`` optional.
    """
    names = owners(
        lambda node: isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("WG_")
    )
    assert sorted(names) == [("cli.py", "build_parser"), ("cli.py", "resolve_config")]


def test_simulation_defaults_have_one_owner():
    """Every ``max_slots`` or ``tol`` default in the package is ``gossip.DEFAULT_MAX_SLOTS`` or ``gossip.DEFAULT_TOL``."""
    owner = {"max_slots": "DEFAULT_MAX_SLOTS", "tol": "DEFAULT_TOL"}
    defaults = []  # (parameter or field name, default expression)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.arguments):
                params = node.posonlyargs + node.args
                pairs = zip(params[len(params) - len(node.defaults):], node.defaults)
                defaults += [(arg.arg, value) for arg, value in [*pairs, *zip(node.kwonlyargs, node.kw_defaults)]]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defaults.append((node.target.id, node.value))
    found = [(name, ast.unparse(value)) for name, value in defaults if name in owner and value is not None]
    assert found and all(value == owner[name] for name, value in found), found


def test_node_sets_are_masks_or_index_arrays():
    """No ``frozenset(...)`` call in the package: a node set is a bool mask or an index array."""
    assert owners(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "frozenset") == []


def test_helper_processes_have_one_owner():
    """``gossip._fork_helper`` alone forks and ``gossip._stop`` alone reaps: one start and one stop for every helper."""
    def calls(name):
        return owners(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == name)

    assert calls("os.fork") == [("gossip.py", "_fork_helper")]
    assert calls("os.waitpid") == [("gossip.py", "_stop")]

def test_warmup_builds_its_table_with_build_sampler(monkeypatch):
    """``kernels.warmup`` lays out no meeting table of its own."""
    build = kernels.build_sampler
    tables = []

    def spy(net):
        tables.append(build(net))
        return tables[-1]

    monkeypatch.setattr(kernels, "build_sampler", spy)
    kernels.warmup()
    assert len(tables) == 1
    assert tables[0][2] >= 2  # the width: the search takes at least one step


def test_start_up_imports_no_process_pool_and_starts_no_process():
    """Importing the package and warming the kernels loads no process-pool module and forks no helper.

    perfbench times this start-up (``setup_s``) and reads the process's peak
    RSS; the ensemble's helpers are forked with ``os.fork`` on the first
    wave that splits, never at import.
    """
    script = (
        "import json, os, sys\n"
        "import willingness_gossip\n"
        "from willingness_gossip import gossip, kernels\n"
        "kernels.warmup()\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    children = True\n"
        "except ChildProcessError:\n"
        "    children = False\n"
        "loaded = sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules)\n"
        "print(json.dumps({'loaded': loaded, 'children': children, 'helpers': len(gossip._helpers)}))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"loaded": [], "children": False, "helpers": 0}
