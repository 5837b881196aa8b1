"""The serving path loads no numpy; every public name still resolves.

Each check runs in a fresh interpreter, because this test process has
imported numpy already.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diracpmf

SRC = str(Path(diracpmf.__file__).resolve().parents[1])


def run_fresh(code):
    """Run code in a new interpreter that imports this checkout; return its stdout lines."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("# sample\n01\n01\n11\n")
    return str(path)


def estimate_code(path, query, method):
    return (
        "import sys\n"
        "from diracpmf.cli import main\n"
        f"code = main(['estimate', '--input', {path!r}, '--query', {query!r},"
        f" '--method', {method!r}])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )


@pytest.mark.parametrize("module", ["diracpmf", "diracpmf.cli"])
def test_import_loads_no_numpy(module):
    assert run_fresh(f"import sys, {module}\nprint('numpy' in sys.modules)") == ["False"]


def test_dirac_estimate_loads_no_numpy(dataset_file):
    out, status = run_fresh(estimate_code(dataset_file, "01", "dirac"))
    assert json.loads(out)["p"] == 2 / 3
    assert status == "0 False"


def test_fwht_estimate_loads_numpy_and_answers(dataset_file):
    out, status = run_fresh(estimate_code(dataset_file, "11", "fwht"))
    assert json.loads(out)["p"] == pytest.approx(1 / 3, abs=1e-12)
    assert status == "0 True"


def test_every_public_name_is_listed_and_resolves():
    out = run_fresh(
        "import diracpmf, diracpmf.basis, diracpmf.estimators\n"
        "print(sorted(set(diracpmf.__all__) - set(dir(diracpmf))))\n"
        "print(all(getattr(diracpmf, name) is not None for name in diracpmf.__all__))\n"
        "print(hasattr(diracpmf, 'no_such_name'))\n"
        "print(diracpmf.PmfEstimate is diracpmf.estimators.PmfEstimate,"
        " diracpmf.basis.check_cap is diracpmf.bitspace.check_cap,"
        " diracpmf.basis.EXHAUSTIVE_CAP == diracpmf.EXHAUSTIVE_CAP)\n"
    )
    assert out == ["[]", "True", "False", "True True True"]
