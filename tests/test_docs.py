"""The README's library table and the package's exports agree with each
module's ``__all__``, the one list of its public names."""

import importlib
import re
from pathlib import Path

import pytest

import essnorm_lab

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
