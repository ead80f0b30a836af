"""Every ```python block of README.md runs against the current API."""

import re
from pathlib import Path

import pytest

_TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# (line of the opening fence, block source)
BLOCKS = [(_TEXT[:m.start()].count("\n") + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```$", _TEXT,
                               re.DOTALL | re.MULTILINE)]


def test_readme_has_python_blocks():
    assert BLOCKS


# ids count the blocks from the top, so an edit elsewhere in the README
# keeps them
@pytest.mark.parametrize("line, source", BLOCKS,
                         ids=[f"block{k}" for k in range(1, len(BLOCKS) + 1)])
def test_readme_block_runs(line, source):
    exec(compile(source, f"README.md:{line}", "exec"), {})
