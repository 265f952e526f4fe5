"""The oracle registry is code; these are the rules it has to keep.

What the retired ``parity-registry`` lint checker policed over an
AST-parsed literal, restated over :data:`tests.oracles.ORACLES`:

* RL101 — every public callable defined in ``tests/oracles`` is the
  oracle of some row, and no ``*_scalar`` definition is left under
  ``src/repro``;
* RL102 — a row naming a callable that does not exist is an
  ``ImportError`` collecting this file;
* RL103 — the two callables of a ``"same"`` row have equal parameter
  names (a method's leading ``self`` aside);
* RL104 / RL105 — dispatch through a mode switch: there is no switch;
* no row loses its only caller — every row's oracle is named in the
  code of a test module, or its production is handed to the
  ``oracles`` fixture there.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

from tests import oracles
from tests.oracles import ORACLES

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
TESTS = Path(__file__).resolve().parent


def _public_callables():
    """``module.name -> callable`` defined in a ``tests.oracles`` module."""
    found = {}
    for info in pkgutil.iter_modules(oracles.__path__):
        module = importlib.import_module(f"tests.oracles.{info.name}")
        for name, value in vars(module).items():
            if (
                not name.startswith("_")
                and callable(value)
                and getattr(value, "__module__", None) == module.__name__
            ):
                found[f"{info.name}.{name}"] = value
    return found


def _unregistered(public, table):
    registered = {id(oracle) for _production, oracle, _signature in table}
    return sorted(
        name for name, value in public.items()
        if id(value) not in registered
    )


def _drifted(table):
    """``"same"`` rows whose parameter names differ."""
    out = []
    for production, oracle, signature in table:
        if signature != "same":
            continue
        want = list(inspect.signature(production).parameters)
        got = list(inspect.signature(oracle).parameters)
        if want[:1] == ["self"]:  # a method: its oracle names the receiver
            want, got = want[1:], got[1:]
        if want != got:
            out.append((production.__qualname__, want, got))
    return out


def test_every_public_oracle_is_registered():
    public = _public_callables()
    assert len(public) >= 30
    assert _unregistered(public, ORACLES) == []
    # ...and the check can fail: drop the ledger row.
    assert _unregistered(public, ORACLES[1:]) == ["ledger.DictChunkLedger"]


def test_same_rows_have_equal_parameter_names():
    assert _drifted(ORACLES) == []

    def production(acc, sizes, nodes):
        raise NotImplementedError

    def oracle(acc, chunks_nodes, nodes):
        raise NotImplementedError

    assert _drifted([(production, oracle, "same")]) == [
        (
            production.__qualname__,
            ["acc", "sizes", "nodes"],
            ["acc", "chunks_nodes", "nodes"],
        )
    ]
    assert _drifted([(production, oracle, "lowered")]) == []


def test_rows_pair_production_code_with_test_code():
    for production, oracle, signature in ORACLES:
        assert signature in ("same", "lowered"), production
        assert production.__module__.split(".")[0] == "repro", production
        assert oracle.__module__.startswith("tests.oracles."), oracle


def test_src_keeps_no_twin_and_never_imports_tests():
    twin = re.compile(r"^\s*def \w+_scalar\(", re.M)
    imports_tests = re.compile(r"^\s*(from|import) tests\b", re.M)
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        assert not twin.search(text), path
        assert not imports_tests.search(text), path


def _test_modules():
    """``file name -> parsed module`` of every other test module."""
    return {
        path.name: ast.parse(path.read_text())
        for path in sorted(TESTS.glob("test_*.py"))
        if path.name != Path(__file__).name
    }


def _callerless(table, modules):
    """Rows whose oracle no module's code names and whose production no
    module hands to the ``oracles`` fixture (directly or as a
    module-level tuple it splats)."""
    named, substituted = set(), set()
    for tree in modules:
        tuples = {
            target.id: node.value.elts
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, (ast.Tuple, ast.List))
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "oracles"
            ):
                for arg in node.args:
                    if isinstance(arg, ast.Starred):
                        elts = tuples.get(ast.unparse(arg.value), [])
                        substituted.update(map(ast.unparse, elts))
                    else:
                        substituted.add(ast.unparse(arg))
    return sorted(
        f"{oracle.__module__}.{oracle.__name__}"
        for production, oracle, _signature in table
        if oracle.__name__ not in named
        and production.__qualname__ not in substituted
    )


def test_no_row_loses_its_only_caller():
    modules = _test_modules()
    assert _callerless(ORACLES, modules.values()) == []
    # ...and the check can fail: the ledger row with no caller, then
    # with one, a direct substitution, and a splatted one.
    ledger = ORACLES[:1]
    for code, orphans in (
        ("x = ArrayChunkLedger", ["tests.oracles.ledger.DictChunkLedger"]),
        ("DictChunkLedger()", []),
        ("with oracles(ArrayChunkLedger): pass", []),
        ("ROWS = (ArrayChunkLedger,)\nwith oracles(*ROWS): pass", []),
    ):
        assert _callerless(ledger, [ast.parse(code)]) == orphans
