import ast
import importlib
import re
from pathlib import Path

import wavebank.cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs(capsys):
    """The README's "Library tour" block imports from the package top level
    and asserts its own results; it must run as written."""
    text = README.read_text()
    tour = re.search(r"## Library tour\s+```python\n(.*?)```", text, re.S)
    assert tour is not None
    exec(compile(tour.group(1), str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("PositionReport(")


def test_census_names_are_library_code_the_cli_does_not_use():
    """Each name in "Library code no subcommand reaches" resolves in its
    `wavebank` module, and `wavebank.cli` neither imports nor names it."""
    section = re.search(r"### Library code no subcommand reaches\n(.*?)\n#", README.read_text(), re.S)
    assert section is not None
    names = re.findall(r"^- `(\w+)\.([\w.]+)`:", section.group(1), re.M)
    assert len(names) >= 30
    cli_source = Path(wavebank.cli.__file__).read_text()
    cli_names = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(cli_source))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    cli_objects = [obj for obj in vars(wavebank.cli).values() if callable(obj)]
    for module, qualname in names:
        obj = importlib.import_module(f"wavebank.{module}")
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert qualname.split(".")[-1] not in cli_names, qualname
        assert all(obj is not imported for imported in cli_objects), qualname
