"""The package's layer graph, read from the sources.

Each layer does one job: ``kak`` factors, ``pulses`` lowers, and
``simulate`` checks what the others produce without depending on them.
``networks`` designs the parity networks that ``kak`` and ``pulses``
both read.
These tests parse every module of the package with :mod:`ast`, collect
its relative imports, and hold that graph to the layering.
"""

import ast
from pathlib import Path

import kakpulse

PACKAGE = Path(kakpulse.__file__).resolve().parent


def relative_imports(path: Path) -> set[str]:
    """Sibling modules a source file imports (``from .x import y`` and
    ``from . import x``)."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def import_graph() -> dict[str, set[str]]:
    return {path.stem: relative_imports(path)
            for path in sorted(PACKAGE.glob("*.py"))}


def test_kak_only_factors():
    deps = import_graph()["kak"]
    assert "pulses" not in deps
    assert "simulate" not in deps


def test_kak_reads_no_gate_vocabulary():
    """A tree holds factors, not gates: the lowering owns the gate list."""
    assert "gates" not in import_graph()["kak"]


def test_networks_reads_only_strings():
    """The network design is GF(2) bookkeeping that both the factorization
    and the lowering read, so it sits below both."""
    assert import_graph()["networks"] <= {"errors", "paulis"}


def test_paulis_reads_only_errors():
    """The string algebra is exact bookkeeping over letters: it reads no
    dense kernel, so every layer above can use it."""
    assert import_graph()["paulis"] <= {"errors"}


def test_simulate_reads_only_the_vocabulary():
    assert import_graph()["simulate"] <= {"errors", "gates", "linalg"}


def test_graph_is_acyclic():
    graph = import_graph()
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]) -> None:
        assert module not in path, f"import cycle {' -> '.join(path + (module,))}"
        if module in done:
            return
        for dep in sorted(graph[module]):
            visit(dep, path + (module,))
        done.add(module)

    for module in graph:
        visit(module, ())
