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
        "import diracpmf, diracpmf.verify, diracpmf.estimators\n"
        "print(sorted(set(diracpmf.__all__) - set(dir(diracpmf))))\n"
        "print(all(getattr(diracpmf, name) is not None for name in diracpmf.__all__))\n"
        "print(hasattr(diracpmf, 'no_such_name'))\n"
        "print(diracpmf.PmfEstimate is diracpmf.estimators.PmfEstimate,"
        " diracpmf.verify.check_cap is diracpmf.bitspace.check_cap,"
        " all(getattr(diracpmf, name) is getattr(diracpmf.verify, name)"
        " for name in diracpmf._VERIFY_NAMES))\n"
    )
    assert out == ["[]", "True", "False", "True True True"]


def test_serving_path_loads_no_dataclasses_or_inspect(dataset_file):
    # dataclasses imports inspect, together ~13 ms of a ~50 ms import.
    loaded = "print([name for name in ('numpy', 'dataclasses', 'inspect') if name in sys.modules])\n"
    assert run_fresh("import sys, diracpmf.cli\n" + loaded) == ["[]"]
    out, status, modules = run_fresh(estimate_code(dataset_file, "01", "dirac") + loaded)
    assert json.loads(out)["p"] == 2 / 3
    assert (status, modules) == ("0 False", "[]")


def test_verify_loads_no_dataclasses():
    # Not inspect: numpy imports it itself.
    assert run_fresh("import sys, diracpmf.verify\nprint('dataclasses' in sys.modules)") == ["False"]


def test_oracle_modules_load_on_first_use(dataset_file):
    verify_loaded = "print('diracpmf.verify' in sys.modules)\n"
    out = run_fresh(
        "import sys, diracpmf\n"
        "from diracpmf import *\n"
        + verify_loaded
        + estimate_code(dataset_file, "01", "dirac")
        + verify_loaded
        + "diracpmf.lemma1_sum\n"
        + verify_loaded
        + "from diracpmf import lemma1_sum, SignAssignment, BasisIndex, eval_basis\n"
        "print(lemma1_sum(SignAssignment((1, 1))), eval_basis(BasisIndex(1, 1),"
        " diracpmf.parse_pattern('0')))\n"
        "print(diracpmf.cli._bench_one_length.__module__)\n"
    )
    assert out[0] == "False"
    assert json.loads(out[1])["p"] == 2 / 3
    assert out[2:] == ["0 False", "False", "True", "4 -1", "diracpmf.cli"]
