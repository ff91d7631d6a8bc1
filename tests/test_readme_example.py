"""The README's library example runs and its configuration example loads."""

import json
import pathlib
import re

from qubit_observer.config import load_config

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_python_blocks_run():
    blocks = _blocks("python")
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})


def test_readme_json_config_loads():
    blocks = _blocks("json")
    assert blocks, "README has no configuration example"
    for block in blocks:
        load_config(json.loads(block))
