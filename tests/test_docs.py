"""The README's configuration defaults, constants, exit codes, names and
library example hold."""

import ast
import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import equiref
from equiref import cli, model
from equiref.cli import read_config
from equiref.structio import write_pdb

from conftest import make_complex

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_block(heading: str, language: str) -> str:
    """The first ``language`` code block after a README heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_training_config_defaults_match_code(tmp_path):
    documented = tmp_path / "documented.json"
    documented.write_text(fenced_block("### Training configuration", "json"))
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({}))
    assert read_config(documented) == read_config(empty)


def test_library_example_runs(tmp_path, monkeypatch):
    structure = make_complex()
    (tmp_path / "native.pdb").write_text(write_pdb(structure))
    (tmp_path / "decoy.pdb").write_text(write_pdb(structure))
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(fenced_block("## Library", "python"), namespace)
    assert namespace["report"].dockq == pytest.approx(1.0, abs=1e-9)
    assert namespace["result"].predicted_lddt.shape == (11,)


def test_edge_block_matches_code():
    text = README.read_text(encoding="utf-8")
    quoted = re.search(r"`model\.EDGE_BLOCK`\s+\(([\d,]+)\)", text).group(1)
    assert int(quoted.replace(",", "")) == model.EDGE_BLOCK


def exit_codes_listed(text: str, start: str) -> set[int]:
    """The codes named in the paragraph of ``text`` that begins with ``start``."""
    paragraph = text[text.index(start):].split("\n\n")[0]
    return {int(code) for code in re.findall(r"\b(\d) [a-z]", paragraph)}


def test_exit_codes_are_documented_alike():
    in_docstring = exit_codes_listed(cli.__doc__, "Exit codes are stable API:")
    in_readme = exit_codes_listed(README.read_text(encoding="utf-8"),
                                  "Exit codes are stable:")
    assert in_docstring == in_readme == {cli.EXIT_OK} | set(cli.EXIT_CODES.values())


def test_module_names_resolve():
    """Each backticked ``module.name`` (or ``equiref.module.name``) of a
    package module names an attribute of that module."""
    modules = {info.name for info in pkgutil.iter_modules(equiref.__path__)}
    found = [
        (module, name)
        for module, name in re.findall(r"`(?:equiref\.)?(\w+)\.(\w+)[`(]",
                                       README.read_text(encoding="utf-8"))
        if module in modules
    ]
    assert len(found) >= 12
    missing = [f"{module}.{name}" for module, name in found
               if not hasattr(importlib.import_module(f"equiref.{module}"), name)]
    assert missing == []


def test_library_example_imports_public_names():
    tree = ast.parse(fenced_block("## Library", "python"))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "equiref"
                for alias in node.names]
    assert imported
    assert set(imported) <= set(equiref.__all__)
