import re

import pytest

import codedim.oracle as oracle
from codedim.betti import hochster_table
from codedim.complexes import VertexSet
from codedim.errors import GuardError, InputError
from codedim.generators import full_simplex
from codedim.linalg import PrimeField
from codedim.oracle import CHECK_NAMES, corrupt_step_one, run_oracle_suite

# The label perfbench/workloads.py reads the trial number from.
LABEL = re.compile(r"trial (\d+) \(seed (\d+)\): ")


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

    # Each fake breaks the oracle binding that exactly one check reads.
    @pytest.mark.parametrize(
        "check, binding, fake, message",
        [
            (
                "bound-ordering",
                "hom_dimension_betti",
                lambda real: lambda t: (99, None),
                "ordering broken: ",
            ),
            (
                "helly-direct",
                "helly_dimension_direct",
                lambda real: lambda d: -1,
                "step-1 maximum disagrees with minimal nonfaces",
            ),
            (
                "euler",
                "_euler_mismatch",
                lambda real: lambda d, field: 0b00101,
                "Euler identity fails on subset 00101",
            ),
            (
                "clique-iff-helly",
                "is_clique_complex",
                lambda real: lambda d: not real(d),
                "clique-complex test disagrees with helly ",
            ),
            (
                "leray-direct",
                "leray_dimension_direct",
                lambda real: lambda d, field: -1,
                "restriction maximum disagrees with table value ",
            ),
        ],
    )
    def test_each_check_fails_alone(self, monkeypatch, check, binding, fake, message):
        monkeypatch.setattr(oracle, binding, fake(getattr(oracle, binding)))
        summary = run_oracle_suite(6, n=5, seed=3)
        assert summary.passes == {
            name: 0 if name == check else 6 for name in CHECK_NAMES
        }
        assert len(summary.failures) == 6
        for t, failure in enumerate(summary.failures):
            label = LABEL.match(failure)
            assert label and label.groups() == (str(t), str(3 + t)), failure
            assert failure[label.end():].startswith(message), failure

    def test_corrupting_a_table_without_step_one_adds_a_generator(self):
        table = hochster_table(full_simplex(3), PrimeField(2))
        assert [i for i, _, _ in table.items()] == [0]
        corrupted = corrupt_step_one(table)
        assert corrupted.entries() == {
            **table.entries(),
            (1, VertexSet.parse("{1}", 3)): 1,
        }
