import json
import subprocess
import sys

import pytest

from codedim.cli import main
from codedim.complexes import ambient_cap
from codedim.errors import GuardError
from codedim.generators import full_simplex

L26_FILE = """# the 14-word code on four neurons
n=4
0000
1000
0100
0010
0001
1100
1010
1001
0110
0101
0011
1110
1011
0111
"""


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestAnalyze:
    def test_octahedron_text(self, capsys):
        status, out, _ = run(capsys, "analyze", "--generator", "octahedron")
        assert status == 0
        assert "leray: 3" in out
        assert "helly: 1" in out
        assert "homological (betti): 3" in out

    def test_octahedron_json(self, capsys):
        status, out, _ = run(
            capsys, "analyze", "--generator", "octahedron", "--format", "json"
        )
        assert status == 0
        parsed = json.loads(out)
        assert (parsed["leray"], parsed["helly"], parsed["homological_betti"]) == (
            3, 1, 3
        )
        assert parsed["oracle_agreement"] == {"leray": True, "helly": True}

    def test_json_output_reserializes_byte_identically(self, capsys):
        _, out, _ = run(
            capsys, "analyze", "--generator", "square", "--format", "json"
        )
        body = out.rstrip("\n")
        assert json.dumps(json.loads(body), indent=2, sort_keys=True) == body

    def test_code_file(self, capsys, tmp_path):
        path = tmp_path / "l26.txt"
        path.write_text(L26_FILE, encoding="utf-8")
        status, out, _ = run(
            capsys, "analyze", "--code-file", str(path), "--format", "json"
        )
        assert status == 0
        parsed = json.loads(out)
        assert parsed["leray"] == 2
        assert parsed["helly"] == 2
        assert parsed["homological_unreduced"] == 1
        assert parsed["homological_betti"] == 0

    def test_full_simplex_all_bounds_zero(self, capsys):
        status, out, _ = run(
            capsys, "analyze", "--generator", "full-simplex", "--n", "3",
            "--format", "json",
        )
        assert status == 0
        parsed = json.loads(out)
        assert parsed["leray"] == parsed["helly"] == parsed["homological_betti"] == 0
        assert parsed["homological_unreduced"] == 1

    def test_inline_words(self, capsys):
        status, out, _ = run(
            capsys, "analyze", "--words", "110,101,011", "--format", "json"
        )
        assert status == 0
        assert json.loads(out)["helly"] == 2  # hollow triangle

    def test_complex_file(self, capsys, tmp_path):
        path = tmp_path / "cx.txt"
        path.write_text("n=4\n1110\n1011\n0111\n", encoding="utf-8")
        status, out, _ = run(
            capsys, "analyze", "--complex-file", str(path), "--format", "json"
        )
        assert status == 0
        assert json.loads(out)["leray"] == 2

    def test_random_generator_is_reachable_and_deterministic(self, capsys):
        argv = (
            "analyze", "--generator", "random", "--n", "6",
            "--density", "0.4", "--seed", "11", "--format", "json",
        )
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first[0] == 0
        assert first[1] == second[1]


class TestBetti:
    def test_cone_over_square_m2_matches_reference_block(self, capsys):
        status, out, _ = run(
            capsys, "betti", "--generator", "cone", "--i", "1", "--format", "m2"
        )
        assert status == 0
        reference = (
            "BettiTally{"
            "(0, {0, 0, 0, 0, 0}, 0) => 1"
            "(1, {1, 1, 0, 0, 0}, 2) => 1"
            "(1, {0, 0, 1, 1, 0}, 2) => 1"
            "(2, {1, 1, 1, 1, 0}, 4) => 1"
            "}"
        )
        assert "".join(out.split()) == "".join(reference.split())

    def test_square_json_has_four_entries(self, capsys):
        status, out, _ = run(
            capsys, "betti", "--generator", "square", "--format", "json"
        )
        assert status == 0
        assert len(json.loads(out)["entries"]) == 4

    def test_full_simplex_single_entry(self, capsys):
        status, out, _ = run(
            capsys, "betti", "--generator", "full-simplex", "--n", "3",
            "--format", "json",
        )
        assert status == 0
        entries = json.loads(out)["entries"]
        assert entries == [{"beta": 1, "i": 0, "sigma": "000"}]

    def test_text_format_shows_level_ranks(self, capsys):
        status, out, _ = run(capsys, "betti", "--generator", "bipartite", "--r", "2")
        assert status == 0
        assert "level ranks: [1, 2, 1]" in out


class TestOracleCheck:
    def test_small_clean_run(self, capsys):
        status, out, _ = run(
            capsys, "oracle-check", "--trials", "5", "--seed", "1", "--max-n", "5"
        )
        assert status == 0
        assert "all 5 trials passed" in out

    def test_zero_trials_trivially_pass(self, capsys):
        status, out, _ = run(capsys, "oracle-check", "--trials", "0")
        assert status == 0

    def test_negative_trials_exit_two(self, capsys):
        status, out, err = run(capsys, "oracle-check", "--trials", "-3")
        assert status == 2
        assert "nonnegative" in err
        assert "passed" not in out

    def test_corrupted_table_fails(self, capsys):
        status, _, err = run(
            capsys, "oracle-check", "--trials", "3", "--max-n", "4",
            "--inject-corrupt",
        )
        assert status == 1
        assert "FAIL" in err


class TestErrorPaths:
    def test_unknown_generator(self, capsys):
        status, _, err = run(capsys, "analyze", "--generator", "torus")
        assert status == 2
        assert "unknown generator" in err

    def test_missing_generator_parameter(self, capsys):
        status, _, err = run(capsys, "analyze", "--generator", "cone")
        assert status == 2
        assert "--i" in err

    def test_no_input_selected(self, capsys):
        status, _, err = run(capsys, "analyze")
        assert status == 2
        assert "exactly one input" in err

    def test_guard_refusal(self, capsys):
        status, _, err = run(
            capsys, "analyze", "--generator", "full-simplex", "--n", "10",
            "--max-n", "8",
        )
        assert status == 2
        assert "subsets" in err

    def test_max_n_above_hard_guard_needs_acknowledgement(self, capsys):
        status, _, err = run(
            capsys, "analyze", "--generator", "square", "--max-n", "25"
        )
        assert status == 2
        assert "--allow-large" in err

    def test_allow_large_does_not_leak_the_ambient_cap(self, capsys):
        status, _, _ = run(
            capsys, "betti", "--generator", "square", "--max-n", "30",
            "--allow-large",
        )
        assert status == 0
        assert ambient_cap() == 24
        with pytest.raises(GuardError):
            full_simplex(25)

    def test_negative_random_size_exits_two(self, capsys):
        status, _, err = run(
            capsys, "analyze", "--generator", "random", "--n", "-1"
        )
        assert status == 2
        assert "n=-1" in err

    def test_nonprime_field_rejected(self, capsys):
        status, _, err = run(
            capsys, "analyze", "--generator", "square", "--field", "6"
        )
        assert status == 2
        assert "prime" in err

    def test_bad_code_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("11\n111\n", encoding="utf-8")
        status, _, err = run(capsys, "analyze", "--code-file", str(path))
        assert status == 2


class TestEnvironmentGuard:
    def test_env_var_sets_default_guard(self, monkeypatch):
        from codedim.betti import sweep_guard

        monkeypatch.setenv("CODEDIM_MAX_N", "9")
        assert sweep_guard() == 9
        monkeypatch.delenv("CODEDIM_MAX_N")
        assert sweep_guard() == 20

    def test_env_guard_blocks_analyze(self, capsys, monkeypatch):
        monkeypatch.setenv("CODEDIM_MAX_N", "5")
        status, _, err = run(
            capsys, "analyze", "--generator", "octahedron"
        )
        assert status == 2
        assert "subsets" in err


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "codedim.cli", "analyze", "--generator", "l26"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert "helly: 2" in result.stdout
