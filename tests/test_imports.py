"""What each process imports: lazy package exports, and the modules a CLI
command loads.

Every jetsym command runs in a fresh interpreter, so the modules it imports
are compiled and executed on every call; a command loads only those it runs.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jetsym

SRC = Path(__file__).resolve().parent.parent / "src"

# The public names of the package, by the module that defines each.
EXPORTS = {
    "colemap": [
        "BareDependentVariable", "NotProjectable", "heat_to_potential", "potential_to_burgers",
        "w_jet_substitution",
    ],
    "detsolve": ["Ansatz", "AnsatzTooLarge", "SolveReport", "solve_symmetries"],
    "diffring": [
        "DiffPoly", "JetLimitError", "const", "exp_poly", "jet", "jet_poly", "par",
        "par_poly", "t_poly", "x_poly",
    ],
    "jetflow": [
        "BURGERS", "EQUATIONS", "HEAT", "POTBURGERS", "Characteristic",
        "EvolutionEquation", "invariance_residual",
    ],
    "opcalc": [
        "NotATotalDerivative", "OperatorExpr", "apply", "boost_op", "commutator_op",
        "dx_preimage", "euler_residual", "op_power", "op_scale", "operator_identity_probe",
        "potential_defect_op", "recursion_ops", "translation_op",
    ],
    "structure": [
        "LieGenerator", "LieMatch", "evolution_form", "heat_point_symmetries",
        "lie_correspondence", "structure_check",
    ],
    "symfam": ["Family", "FamilyIndex", "commutator", "family_seed_chain", "q_char"],
    "zeta": [
        "OrderExceeded", "ZetaBasis", "ZetaPoly", "build_zetas", "from_zeta_coordinates",
        "to_zeta_coordinates", "verify_zeta_identities",
    ],
}

# Runs the code in argv[1] with the command line argv[2:], then prints the
# modules loaded.
_LOADED = """
import sys
try:
    exec(sys.argv.pop(1))
finally:
    print(" ".join(sorted(sys.modules)), file=sys.stderr)
"""

# Runs jetsym.cli as python -m does, with the command line argv[1:].
_RUN_CLI = 'import runpy; runpy.run_module("jetsym.cli", run_name="__main__", alter_sys=True)'


def all_loaded_modules(code, *argv):
    """Every module a fresh interpreter has loaded after running code."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", _LOADED, code, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return set(out.stderr.splitlines()[-1].split())


def loaded_modules(code, *argv):
    """The jetsym modules a fresh interpreter has loaded after running code."""
    return {m for m in all_loaded_modules(code, *argv) if m.split(".")[0] == "jetsym"}


def test_every_export_resolves_to_its_module_attribute():
    assert sorted(jetsym.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"jetsym.{module}")
        for name in names:
            assert getattr(jetsym, name) is getattr(defining, name), name


def test_star_import_dir_version_and_unknown_names():
    namespace = {}
    exec("from jetsym import *", namespace)
    assert set(jetsym.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(jetsym, name) for name in jetsym.__all__)
    assert {*jetsym.__all__, *EXPORTS} <= set(dir(jetsym))
    assert jetsym.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        jetsym.no_such_name
    with pytest.raises(ImportError):
        exec("from jetsym import no_such_name", {})


def test_import_jetsym_loads_no_module():
    assert loaded_modules("import jetsym") == {"jetsym"}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_an_export_loads_only_its_module(module):
    # resolving the names of one module, or the module as an attribute of
    # the package, loads what importing that module does
    names = [module, *EXPORTS[module]]
    resolved = loaded_modules(f"import jetsym; [getattr(jetsym, n) for n in {names!r}]")
    assert resolved == loaded_modules(f"import jetsym.{module}")


@pytest.mark.parametrize(
    "argv, loads, skips",
    [
        (
            ["gen", "--eq", "heat", "--max-order", "2"],
            [],
            ["detsolve", "zeta", "colemap", "checks", "opcalc", "structure"],
        ),
        (
            ["solve", "--order", "2"],
            ["detsolve"],
            ["checks", "zeta", "colemap", "opcalc", "structure"],
        ),
        (
            ["map", "--k", "0", "--l", "1"],
            ["colemap"],
            ["checks", "zeta", "detsolve", "opcalc", "structure"],
        ),
        (
            ["verify", "--suite", "maps", "--max-order", "1"],
            ["checks"],
            ["detsolve", "opcalc", "structure"],
        ),
        (
            ["verify", "--suite", "commutators", "--max-order", "1"],
            ["checks", "structure"],
            ["detsolve", "colemap", "zeta", "opcalc"],
        ),
        (
            ["verify", "--suite", "invariance", "--max-order", "1"],
            ["checks", "structure"],
            ["detsolve", "colemap", "zeta", "opcalc"],
        ),
        (
            ["verify", "--suite", "zeta", "--max-order", "1"],
            ["checks", "zeta"],
            ["detsolve", "colemap", "opcalc", "structure"],
        ),
        (
            ["verify", "--suite", "recursion", "--max-order", "1"],
            ["checks", "opcalc"],
            ["detsolve", "colemap", "zeta", "structure"],
        ),
    ],
)
def test_a_command_loads_only_the_modules_it_runs(argv, loads, skips):
    # under python -m, cli runs as __main__: a jetsym.cli entry would be a
    # second copy of it, compiled and executed again
    loaded = loaded_modules(_RUN_CLI, *argv)
    assert "jetsym.cli" not in loaded
    assert {f"jetsym.{m}" for m in loads} <= loaded
    assert not {f"jetsym.{m}" for m in skips} & loaded


def test_only_json_output_loads_json():
    # a bare interpreter does not load json, so a text table need not; solve
    # writes its JSON without it
    gen = ["gen", "--eq", "heat", "--max-order", "2", "--format"]
    assert "json" not in all_loaded_modules("pass")
    assert "json" not in all_loaded_modules(_RUN_CLI, *gen, "text")
    assert "json" in all_loaded_modules(_RUN_CLI, *gen, "json")
    assert "json" not in all_loaded_modules(_RUN_CLI, "solve", "--order", "1", "--format", "json")


# The modules that work on polynomials only through the ring's public
# operations; jetflow and detsolve walk packed keys by design, and so does
# one function of opcalc, which integrates from one numerator table and
# imports the ring's internals in its own body.
RING_CLIENTS = ["symfam", "structure", "colemap", "zeta", "opcalc", "checks", "cli"]
_RING_INTERNALS = {"_nums", "_den", "_make"}
_PACKED_WALKERS = {"opcalc": "x_antiderivative"}


@pytest.mark.parametrize("module", RING_CLIENTS)
def test_a_ring_client_reads_no_ring_internals(module):
    tree = ast.parse((SRC / "jetsym" / f"{module}.py").read_text())
    walker = _PACKED_WALKERS.get(module)
    kept = [n for n in tree.body if not (isinstance(n, ast.FunctionDef) and n.name == walker)]
    assert len(kept) == len(tree.body) - (walker is not None)
    tree.body = kept
    private_imports = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("diffring", "jetsym.diffring")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    internal_reads = [
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in _RING_INTERNALS
    ]
    assert private_imports == []
    assert internal_reads == []


def test_no_module_imports_a_private_name_of_jetflow():
    # jetflow's derivation tables and image builders are its own: a module
    # that needs a D_x takes it through x_derivative
    private_imports = [
        f"{path.stem}: {alias.name}"
        for path in sorted((SRC / "jetsym").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module in ("jetflow", "jetsym.jetflow")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private_imports == []


# Definitions that only tests and the benchmark reach, each with its reason.
_REACHED_ONLY_OUTSIDE = {
    "cli.render_table": "perfbench's layer tracer wraps it as the table renderer",
}


def test_every_definition_is_reached_outside_the_tests():
    # each top-level function, class and method of the package is named in
    # the package or a demo: as a name, an attribute or an imported name.
    # Dunders, the public names and their classes' methods are exempt: the
    # interpreter calls the first, and the others are the library's API.
    sources = sorted((SRC / "jetsym").glob("*.py"))
    demos = sorted((SRC.parent / "demos").glob("*.py"))
    defined = {}
    referenced = set()
    for path in sources + demos:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
        if path in demos:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in jetsym.__all__:
                continue
            defined[f"{path.stem}.{node.name}"] = node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef):
                    defined[f"{path.stem}.{node.name}.{item.name}"] = item.name
    unreached = sorted(
        qualname
        for qualname, name in defined.items()
        if name not in referenced and not name.startswith("__")
    )
    assert unreached == sorted(_REACHED_ONLY_OUTSIDE)
