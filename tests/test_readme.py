"""README's examples run as written: its JSON config resolves, its
library-use block executes, and each call it quotes names the parameters
the function requires, so a deleted key, option or parameter cannot linger
there."""

import ast
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import mchcontrol
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


MODULES = {name: importlib.import_module(f"mchcontrol.{name}")
           for _, name, _ in pkgutil.iter_modules(mchcontrol.__path__)}


def package_callable(func):
    """The package function, class or method that a quoted call's name
    reads (`f`, `module.f`, `Class.method`), or None for any other name."""
    if isinstance(func, ast.Name):
        for module in MODULES.values():
            obj = getattr(module, func.id, None)
            if callable(obj) and getattr(obj, "__module__", "").startswith(
                    "mchcontrol."):
                return obj
    elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        owner = MODULES.get(func.value.id) or package_callable(func.value)
        return getattr(owner, func.attr, None)
    return None


def quoted_calls():
    """Each inline-code span outside the fenced blocks that parses as one
    call, with its call node."""
    prose = re.sub(r"^```.*?^```$", "", README, flags=re.M | re.S)
    for span in re.findall(r"`([^`]+)`", prose):
        text = " ".join(span.split())
        try:
            node = ast.parse(text, mode="eval").body
        except SyntaxError:
            continue
        if isinstance(node, ast.Call):
            yield text, node


def test_readme_calls_name_the_required_parameters():
    short = []
    for text, call in quoted_calls():
        obj = package_callable(call.func)
        if obj is None or any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords):
            continue
        params = [p for p in inspect.signature(obj).parameters.values()
                  if p.name != "self"]  # Class.method quotes no self
        required = [p.name for p in params if p.default is p.empty
                    and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        named = set(required[:len(call.args)]) | {k.arg for k in call.keywords}
        if not set(required) <= named:
            short.append(text)
    assert not short, f"README calls missing required parameters: {short}"
