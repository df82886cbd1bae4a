"""The README's library table and the package's exports agree with each
module's ``__all__``, the one list of its public names, its operator
representation table names only what the package has, its config
table agrees with the scenarios' entries in ``experiments._SCENARIOS``,
and its check table names every check a scenario can report."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import essnorm_lab
from essnorm_lab import experiments

README = Path(__file__).resolve().parent.parent / "README.md"

# the modules the package re-exports, in the order of its __all__
PACKAGE_MODULES = ["essnorm", "lattice", "lpspace", "measure", "operators"]


def library_table():
    """(module, names) per row of the "Library overview" table, where names
    are the backticked entries of the contents column."""
    section = README.read_text().split("## Library overview", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        match = re.fullmatch(r"`(\w+)`", cells[0]) if len(cells) == 2 else None
        if match:
            rows.append((match.group(1), re.findall(r"`([\w.]+)`", cells[1])))
    return rows


ROWS = library_table()


def test_table_lists_every_module():
    modules = [module for module, _ in ROWS]
    assert modules == ["measure", "lpspace", "operators", "lattice", "essnorm", "experiments"]


@pytest.mark.parametrize("module,names", ROWS, ids=[module for module, _ in ROWS])
def test_table_names_resolve(module, names):
    owner = importlib.import_module(f"essnorm_lab.{module}")
    for name in names:
        obj = owner
        for part in name.split("."):
            assert hasattr(obj, part), f"README names `{name}`, which essnorm_lab.{module} lacks"
            obj = getattr(obj, part)


@pytest.mark.parametrize("module,names", ROWS, ids=[module for module, _ in ROWS])
def test_table_lists_every_public_name(module, names):
    missing = set(importlib.import_module(f"essnorm_lab.{module}").__all__) - set(names)
    assert not missing, f"the README's {module} row leaves out {sorted(missing)}"


def test_package_exports_its_modules_all():
    expected = [name for m in PACKAGE_MODULES for name in getattr(essnorm_lab, m).__all__]
    assert essnorm_lab.__all__ == expected
    for name in expected:
        assert hasattr(essnorm_lab, name), name


def representation_names():
    """The backticked names in the first column of the "Operator
    representations" table.  A call such as `MatrixOperator(entries, space)`
    names its callee; single capitals (`M`, `A`) stand for operands."""
    section = README.read_text().split("### Operator representations", 1)[1].split("\n#", 1)[0]
    names = []
    for line in section.splitlines():
        if line.startswith("|"):
            first = line.strip("|").split("|")[0]
            names += [n for n in re.findall(r"`([\w.]+)(?:\([^`]*\))?`", first) if not re.fullmatch("[A-Z]", n)]
    return names


def test_representation_table_names_resolve():
    names = representation_names()
    assert "MatrixOperator.zero" in names and "pinch" in names
    for name in names:
        obj = essnorm_lab
        for part in name.split("."):
            assert hasattr(obj, part), f"README's representation table names `{name}`, which essnorm_lab lacks"
            obj = getattr(obj, part)


def config_table():
    """The cells of each row of the "Config format" table, by scenario."""
    section = README.read_text().split("### Config format", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        match = re.fullmatch(r"`(\w+)`", cells[0]) if len(cells) == 6 else None
        if match:
            rows[match.group(1)] = cells[1:]
    return rows


CONFIG_ROWS = config_table()


def test_config_table_lists_every_scenario():
    assert list(CONFIG_ROWS) == list(experiments.SCENARIOS)


@pytest.mark.parametrize("scenario", list(CONFIG_ROWS))
def test_config_table_matches_scenarios(scenario):
    entry = experiments._SCENARIOS[scenario]
    *cells, p = CONFIG_ROWS[scenario]
    requires, optional, perturbations, functions = (re.findall(r"`([\w.]+)`", c) for c in cells)
    assert tuple(requires) == entry.requires
    assert tuple(optional) == entry.accepts
    assert tuple(perturbations) == entry.perturbations
    # function specs apply to the fields that hold functions, u.diffuse and kernel
    fields = [path.split(".")[:2] for path in (*entry.requires, *entry.accepts)]
    reads_functions = any(path[0] == "kernel" or path == ["u", "diffuse"] for path in fields)
    assert tuple(functions) == (entry.functions if reads_functions else ())
    assert p == ("1" if entry.p_is_one else "any")


def check_names_in_code():
    """The first argument of every ``Check(...)`` and ``_at_most(...)`` call
    in experiments.py: the name of each check a scenario can report."""
    names = set()
    for node in ast.walk(ast.parse(Path(experiments.__file__).read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("Check", "_at_most"):
            if node.args and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str):
                names.add(node.args[0].value)
    return names


def check_table():
    """The backticked name in the first column of each row of the "Checks" table."""
    section = README.read_text().split("### Checks", 1)[1].split("\n#", 1)[0]
    return {m.group(1) for line in section.splitlines() if (m := re.match(r"\| `(\w+)` \|", line))}


def test_check_table_lists_every_check():
    names = check_names_in_code()
    assert "certificates_verified" in names and "matches_formula" in names
    documented = check_table()
    assert not names - documented, f"the README's Checks table leaves out {sorted(names - documented)}"
    stale = sorted(documented - names)
    assert not stale, f"the README's Checks table names {stale}, which no scenario reports"
