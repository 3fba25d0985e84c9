"""README's examples run as written: its JSON config resolves and its
library-use block executes, so a deleted key or option cannot linger there."""

import json
import re
from pathlib import Path

from mchcontrol.config import resolve_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def test_readme_config_resolves():
    (block,) = blocks("json")
    cfg = resolve_config(json.loads(block))
    assert cfg["domain"]["n_interior"] == 48


def test_readme_library_example_runs(capsys):
    (block,) = blocks("python")
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["state"].converged
    assert capsys.readouterr().out.startswith(scope["state"].message)
