"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    blocks = re.findall(r"^```python\n(.*?)^```$", library, re.M | re.S)
    assert blocks, "the README Library section has no python block"
    exec(compile(blocks[0], f"{README}:Library", "exec"), {})
