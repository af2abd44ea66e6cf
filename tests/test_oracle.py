import os
import subprocess
import sys

import pytest

from codedim.errors import GuardError, InputError
from codedim.oracle import corrupt_step_one, run_oracle_suite


class TestOracleSuite:
    def test_clean_run_passes_every_check(self):
        summary = run_oracle_suite(12, n=5, seed=3)
        assert summary.ok
        assert all(count == 12 for count in summary.passes.values())

    def test_zero_trials(self):
        summary = run_oracle_suite(0)
        assert summary.ok and summary.trials == 0

    def test_negative_trials_refused(self):
        with pytest.raises(InputError, match="-3"):
            run_oracle_suite(-3)

    def test_corruption_is_detected(self):
        summary = run_oracle_suite(4, n=4, seed=0, table_mutator=corrupt_step_one)
        assert not summary.ok
        assert summary.passes["step-one-generators"] == 0

    def test_large_n_refused(self):
        with pytest.raises(GuardError):
            run_oracle_suite(1, n=9)


def test_numpy_fallback_selected_by_env_flag():
    env = dict(os.environ, CODEDIM_DISABLE_NUMBA="1")
    script = (
        "from codedim.linalg import active_backend\n"
        "from codedim.oracle import run_oracle_suite\n"
        "assert active_backend() == 'numpy', active_backend()\n"
        "assert run_oracle_suite(2, n=4, seed=5).ok\n"
        "print('numpy path ok')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert "numpy path ok" in result.stdout
