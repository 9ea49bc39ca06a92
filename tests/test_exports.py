"""The package's export list, and what importing the package loads."""

import inspect
import os
import pathlib
import subprocess
import sys

import a2cf

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_every_exported_name_resolves():
    missing = [name for name in a2cf.__all__ if not hasattr(a2cf, name)]
    assert missing == []


def test_export_list_sorted_without_duplicates():
    assert a2cf.__all__ == sorted(set(a2cf.__all__))


def test_every_public_function_and_class_is_exported():
    public = {name for name, value in vars(a2cf).items()
              if not name.startswith("_")
              and (inspect.isfunction(value) or inspect.isclass(value))}
    assert sorted(public - set(a2cf.__all__)) == []


def test_import_loads_no_scipy():
    """The package runs on numpy alone. Importing scipy.special would add
    about 19 MB of resident memory and about half of every command's
    start-up time, so a fresh `import a2cf, a2cf.cli` must leave no scipy
    module loaded."""
    probe = ("import sys, a2cf, a2cf.cli; print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
