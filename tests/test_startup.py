"""What importing the package loads, checked in fresh interpreters so that
the import order of the test process does not matter."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code: str, *path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(p) for p in (*path, SRC)))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_cli_import_skips_scipy_linalg_and_process_pool():
    proc = _python(
        """
        import sys
        import autophagy_tumor.cli
        heavy = ("scipy.linalg", "concurrent.futures.process")
        print(sorted(m for m in heavy if m in sys.modules))
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_dgtsv_matches_scipy_linalg_bit_for_bit():
    # scipy.linalg is imported first, so the package finds it loaded
    proc = _python(
        """
        import numpy as np
        import scipy.linalg.lapack
        from autophagy_tumor import solver

        rng = np.random.default_rng(7)
        for m in (2, 3, 251, 2401):
            for dominant in (False, True):
                lower = rng.random(m - 1) - 0.5
                upper = rng.random(m - 1) - 0.5
                diag = rng.random(m) - 0.5 + (2.0 if dominant else 0.0)
                rhs = rng.random(m) - 0.5
                got = solver.dgtsv(lower, diag, upper, rhs)
                want = scipy.linalg.lapack.dgtsv(lower, diag, upper, rhs)
                assert got[4] == want[4] == 0, (m, dominant, got[4], want[4])
                for a, b in zip(got[:4], want[:4]):
                    assert a.tobytes() == b.tobytes(), (m, dominant)
        print("ok")
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_missing_flapack_raises_import_error_naming_the_directory(tmp_path):
    linalg = tmp_path / "scipy" / "linalg"
    linalg.mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    (linalg / "__init__.py").write_text("")
    proc = _python("import autophagy_tumor.solver", tmp_path)
    assert proc.returncode != 0
    assert "ImportError" in proc.stderr
    assert "_flapack not found" in proc.stderr
    assert str(linalg) in proc.stderr
