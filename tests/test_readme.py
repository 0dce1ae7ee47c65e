"""The README's library quick start and scenario file work as written."""

import re
from pathlib import Path

import yaml

from fracroots import EconomicPrimitives, derive_constants
from fracroots.cli import load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      flags=re.MULTILINE | re.DOTALL)


def test_quick_start_block_runs(capsys):
    blocks = readme_blocks("python")
    assert len(blocks) == 1, f"expected one python block in README.md, found {len(blocks)}"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert "Decision.CONTINUE" in capsys.readouterr().out


def test_scenario_file_block_loads(tmp_path):
    blocks = readme_blocks("yaml")
    assert len(blocks) == 1, f"expected one yaml block in README.md, found {len(blocks)}"
    path = tmp_path / "scenario.yaml"
    path.write_text(blocks[0], encoding="utf-8")
    config = load_config(str(path))
    assert config.problem.constants.a6 == 451474.0
    assert config.settings().alpha.value == 0.26131
    # The commented-out alternative, in place of the constants.
    doc = yaml.safe_load(re.sub(r"^# ", "", blocks[0], flags=re.MULTILINE))
    del doc["constants"]
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    expected = derive_constants(EconomicPrimitives(**doc["primitives"]))
    assert load_config(str(path)).problem.constants == expected
