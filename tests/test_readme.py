"""Every ```python block of README.md, run as written, in order, in one
namespace: the documented examples break here before they break for a
reader."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_readme_python_blocks_run(capsys):
    blocks = python_blocks(README.read_text())
    assert blocks, "README.md has no python block"
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"{README.name} python block {i + 1}", "exec"), namespace)
    # the library tour prints the scalar toy's verdict: noise stabilizes it
    assert capsys.readouterr().out.startswith("True ")
