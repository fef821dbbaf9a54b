"""The library example in README.md runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_the_readme_library_example_prints_what_its_comments_say():
    """Each ``print(...)  # value, words`` line of the one ```python block
    must print ``value``: the comment up to its first comma."""
    (example,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    expected = [
        line.split("#", 1)[1].split(",")[0].strip()
        for line in example.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
    assert len(expected) == 6
