"""What a fresh interpreter loads when it imports qkdmc."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qkdmc

SRC = str(Path(qkdmc.__file__).resolve().parents[1])


def loaded_after(statement: str) -> set[str]:
    """The module names a fresh interpreter holds after running `statement`."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    script = f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return set(result.stdout.split())


def test_the_cli_does_not_load_dataclasses():
    modules = loaded_after("import qkdmc.cli")
    assert "qkdmc.lang.ast" in modules
    assert "dataclasses" not in modules


def test_the_cli_loads_only_the_standard_library_and_qkdmc():
    for name in loaded_after("import qkdmc.cli") - loaded_after("pass"):
        top = name.partition(".")[0]
        assert top in sys.stdlib_module_names or top == "qkdmc", name


def test_a_bare_import_loads_no_submodule():
    assert {name for name in loaded_after("import qkdmc") if name.startswith("qkdmc.")} == set()


def test_every_public_name_resolves():
    namespace = {}
    exec("from qkdmc import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(qkdmc.__all__)
    assert set(qkdmc.__all__) <= set(dir(qkdmc))
    assert qkdmc.parse is qkdmc.lang.parse
    with pytest.raises(AttributeError):
        qkdmc.no_such_name
