"""Rules with one owner: each test fails if a second copy of the rule comes back."""

import ast
from pathlib import Path

import willingness_gossip
from willingness_gossip import kernels

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
