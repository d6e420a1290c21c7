import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs(capsys):
    """The README's "Library tour" block imports from the package top level
    and asserts its own results; it must run as written."""
    text = README.read_text()
    tour = re.search(r"## Library tour\s+```python\n(.*?)```", text, re.S)
    assert tour is not None
    exec(compile(tour.group(1), str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("PositionReport(")
