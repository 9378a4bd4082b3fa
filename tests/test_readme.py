import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs_as_written():
    """The README's ``python`` blocks run in order in one namespace, so a
    deleted name or a changed signature in the tour fails here."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["box"].grad.shape == (4, 9)
    assert namespace["grad_edges"].shape == (3, 4, 9)
