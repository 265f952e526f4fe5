"""The oracle registry is code; these are the rules it has to keep.

What ``tools/reprolint``'s ``parity-registry`` checker policed over an
AST-parsed literal, restated over :data:`tests.oracles.ORACLES`:

* RL101 — every public callable defined in ``tests/oracles`` is the
  oracle of some row, and no ``*_scalar`` definition is left under
  ``src/repro``;
* RL102 — a row naming a callable that does not exist is an
  ``ImportError`` collecting this file;
* RL103 — the two callables of a ``"same"`` row have equal parameter
  names (a method's leading ``self`` aside);
* RL104 / RL105 — dispatch through a mode switch: there is no switch.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

from tests import oracles
from tests.oracles import ORACLES

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


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
