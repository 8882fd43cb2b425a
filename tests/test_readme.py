"""README's code stays runnable: its library quick start is executed as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1, "README should hold exactly one python block, the quick start"
    namespace = {"__name__": "readme_quick_start"}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    result = namespace["result"]
    assert namespace["exact_w2"](namespace["X"], namespace["Y"]) <= result.value
