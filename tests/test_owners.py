"""Rules with one owner: each test fails if a second copy of the rule comes back."""

import ast
from pathlib import Path

import willingness_gossip
from willingness_gossip import kernels

SRC = Path(willingness_gossip.__file__).parent


def test_every_dense_solve_goes_through_one_helper():
    """``meanfield._solve`` holds the one ``linalg.solve`` call in the package."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # node -> innermost enclosing function: ast.walk visits outer functions first
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                owner.update((node, func.name) for node in ast.walk(func))
        calls += [
            (path.name, owner.get(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("linalg.solve")
        ]
    assert calls == [("meanfield.py", "_solve")]


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
