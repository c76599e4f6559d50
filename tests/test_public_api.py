"""The documented public surface: ``from kakpulse import *`` binds every
name of ``__all__``, and the Python API example of the README runs as
written."""

import re
from pathlib import Path

import kakpulse

README = Path(__file__).resolve().parents[1] / "README.md"


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from kakpulse import *", namespace)
    assert set(kakpulse.__all__) <= namespace.keys()


def test_readme_python_api_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "the README's Python API section has no python block"
    exec(compile(block.group(1), "README.md: Python API", "exec"), {})
