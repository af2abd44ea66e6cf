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

