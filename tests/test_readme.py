"""The README's library quick start runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_block_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, f"expected one python block in README.md, found {len(blocks)}"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert "Decision.CONTINUE" in capsys.readouterr().out
