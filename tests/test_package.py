"""The package surface: every name that an __all__ lists exists, and importing
the CLI loads only the modules that every command runs."""
import importlib
import os
import subprocess
import sys

import pytest

import hyperbessel

MODULES = ["hyperbessel", "hyperbessel.cli", "hyperbessel.hypergroup", "hyperbessel.kernels",
           "hyperbessel.quadrature", "hyperbessel.sampling", "hyperbessel.specfun",
           "hyperbessel.verify"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_law_writer_is_exported_from_kernels():
    from hyperbessel import kernels
    assert hyperbessel.law_json is kernels.law_json


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        hyperbessel.nope


def fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter on this source tree."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_import_loads_only_what_every_command_runs():
    code = ("import sys, hyperbessel.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('hyperbessel')))\n"
            "print([m for m in ('hyperbessel.kernels', 'hyperbessel.verify', 'fractions', 'json',"
            " 'scipy') if m in sys.modules])\n")
    assert fresh(code) == ("['hyperbessel', 'hyperbessel.cli', 'hyperbessel.hypergroup', "
                           "'hyperbessel.quadrature', 'hyperbessel.sampling', "
                           "'hyperbessel.specfun']\n[]\n")


def test_deferred_names_load_their_own_module():
    code = ("import sys, hyperbessel\n"
            "loaded = lambda: [m in sys.modules for m in ('hyperbessel.kernels', "
            "'hyperbessel.verify')]\n"
            "print(loaded())\n"
            "hyperbessel.law_json\n"
            "print(loaded())\n"
            "print(hyperbessel.verify is sys.modules['hyperbessel.verify'], loaded())\n"
            "print(set(hyperbessel.__all__) <= set(dir(hyperbessel)))\n")
    assert fresh(code) == "[False, False]\n[True, False]\nTrue [True, True]\nTrue\n"


def test_every_exported_name_is_its_modules_own_object():
    # each name resolved through the package first, then against the one
    # submodule whose __all__ lists it
    code = ("import importlib, sys, hyperbessel\n"
            "names = [n for n in hyperbessel.__all__ if n != '__version__']\n"
            "got = {n: getattr(hyperbessel, n) for n in names}\n"
            "subs = [importlib.import_module('hyperbessel.' + s) for s in ('hypergroup', "
            "'kernels', 'quadrature', 'sampling', 'specfun', 'verify')]\n"
            "for n in names:\n"
            "    (home,) = [m for m in subs if n in m.__all__]\n"
            "    assert getattr(home, n) is got[n] is getattr(hyperbessel, n), n\n"
            "for s in ('kernels', 'verify'):\n"
            "    assert getattr(hyperbessel, s) is sys.modules['hyperbessel.' + s], s\n"
            "print(len(names))\n")
    assert fresh(code) == "32\n"


def test_cli_import_finds_every_cache():
    # a benchmark clears the functools caches it finds after importing the CLI,
    # so no module that loads later may hold one
    code = ("import pkgutil, sys\n"
            "def caches():\n"
            "    return {f'{v.__module__}.{v.__qualname__}'\n"
            "            for name, mod in list(sys.modules.items())\n"
            "            if mod is not None and name.startswith('hyperbessel')\n"
            "            for v in vars(mod).values()\n"
            "            if callable(getattr(v, 'cache_clear', None))}\n"
            "import hyperbessel.cli\n"
            "first = caches()\n"
            "for info in pkgutil.iter_modules(hyperbessel.__path__, 'hyperbessel.'):\n"
            "    __import__(info.name)\n"
            "assert len([m for m in sys.modules if m.startswith('hyperbessel.')]) == 7\n"
            "print(sorted(first), first == caches())\n")
    assert fresh(code) == "['hyperbessel.quadrature.gauss_jacobi'] True\n"
