import json
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import codedim.dimensions as dimensions
from codedim.cli import main
from codedim.dimensions import full_report, report_to_json
from codedim.generators import random_complex

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


def readme_block(heading, language):
    """The first fenced block of that language under README's heading."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(rf"## {heading}\n.*?```{language}\n(.*?)```", text, re.S)
    return block.group(1) if block else ""


def readme_commands():
    """The `codedim ...` lines of README's "Command line" block."""
    lines = readme_block("Command line", "sh").splitlines()
    return [line for line in lines if line.startswith("codedim ")]


class TestReadmeCommands:
    def test_block_is_found(self):
        assert len(readme_commands()) >= 5

    @pytest.mark.parametrize("command", readme_commands())
    def test_documented_command_runs(self, capsys, tmp_path, monkeypatch, command):
        (tmp_path / "examples.txt").write_text(L26_FILE, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        status, out, err = run(capsys, *shlex.split(command)[1:])
        assert status == 0, err
        assert out.strip()


class TestReadmeLibrary:
    def test_example_prints_the_three_bounds(self, capsys):
        source = readme_block("Library", "python")
        assert "full_report" in source
        exec(compile(source, "README.md", "exec"), {})
        assert capsys.readouterr().out == "2 2 2\n"


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

    def test_large_full_simplex_all_bounds_zero(self, capsys):
        status, out, _ = run(
            capsys, "analyze", "--generator", "full-simplex", "--n", "16",
            "--format", "json",
        )
        assert status == 0
        parsed = json.loads(out)
        assert parsed["leray"] == parsed["helly"] == parsed["homological_betti"] == 0

    def test_inline_words(self, capsys):
        status, out, _ = run(
            capsys, "analyze", "--words", "110,101,011", "--format", "json"
        )
        assert status == 0
        assert json.loads(out)["helly"] == 2  # hollow triangle

    def test_inline_brace_sets_keep_their_commas(self, capsys):
        _, binary, _ = run(capsys, "analyze", "--words", "110,101,011")
        status, braces, _ = run(
            capsys, "analyze", "--words", "{1, 2},{1,3}", "{2,3}"
        )
        assert status == 0
        assert braces == binary

    def test_complex_file(self, capsys, tmp_path):
        path = tmp_path / "cx.txt"
        path.write_text("n=4\n1110\n1011\n0111\n", encoding="utf-8")
        status, out, _ = run(
            capsys, "analyze", "--complex-file", str(path), "--format", "json"
        )
        assert status == 0
        assert json.loads(out)["leray"] == 2

    @pytest.mark.parametrize("field,expected", [("2", (3, 2, 3)), ("3", (2, 2, 0))])
    def test_projective_plane_depends_on_the_field(self, capsys, field, expected):
        status, out, _ = run(
            capsys, "analyze", "--generator", "projective-plane",
            "--field", field, "--format", "json",
        )
        assert status == 0
        parsed = json.loads(out)
        assert (parsed["leray"], parsed["helly"], parsed["homological_betti"]) == expected

    def test_random_generator_is_reachable_and_deterministic(self, capsys):
        argv = (
            "analyze", "--generator", "random", "--n", "6",
            "--density", "0.4", "--seed", "11", "--format", "json",
        )
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first[0] == 0
        assert first[1] == second[1]

    def test_random_generator_takes_size_density_and_seed(self, capsys):
        status, out, _ = run(
            capsys, "analyze", "--generator", "random", "--n", "5",
            "--density", "0.3", "--seed", "3", "--format", "json",
        )
        assert status == 0
        expected = report_to_json(full_report(random_complex(5, 0.3, 3)))
        assert out == expected + "\n"


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

    def test_random_generator_needs_a_size(self, capsys):
        status, _, err = run(capsys, "analyze", "--generator", "random")
        assert status == 2
        assert "needs --n" in err

    @pytest.mark.parametrize(
        "generator, flag",
        [("square", "--i"), ("octahedron", "--n"), ("cone", "--r"),
         ("random", "--m"), ("full-simplex", "--i")],
    )
    def test_size_flag_the_generator_does_not_take(self, capsys, generator, flag):
        extra = ["--i", "1"] if generator == "cone" else []
        extra += ["--n", "3"] if generator in ("random", "full-simplex") else []
        status, out, err = run(
            capsys, "analyze", "--generator", generator, *extra, flag, "3"
        )
        assert status == 2
        assert out == ""
        assert f"takes no {flag}" in err

    def test_consistency_error_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(dimensions, "leray_dimension_direct", lambda d, field: 99)
        status, out, err = run(capsys, "analyze", "--generator", "octahedron")
        assert status == 1
        assert out == ""
        assert err.startswith("internal consistency error")

    def test_no_input_selected(self, capsys):
        status, _, err = run(capsys, "analyze")
        assert status == 2
        assert "exactly one input" in err

    @pytest.mark.parametrize(
        "word, limit",
        [("{100000000}", 1 << 20), ("1" * 10**6, 64 << 10)],
        ids=["brace-label", "binary-word"],
    )
    def test_oversized_word_is_refused_before_it_is_built(
        self, capsys, word, limit
    ):
        # the first refusal in a process also imports argparse's locale
        # support, so warm the error path before tracing
        run(capsys, "analyze", "--words", "{25}")
        tracemalloc.start()
        try:
            status = main(["analyze", "--words", word])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 2
        assert "outside the allowed range 1..24" in capsys.readouterr().err
        assert peak < limit

    @pytest.mark.parametrize("flood", ["{ " * 10**5, "{," * 10**5])
    def test_unclosed_braces_are_refused_quickly(self, capsys, flood):
        start = time.perf_counter()
        status, _, err = run(capsys, "analyze", "--words", flood)
        assert time.perf_counter() - start < 1
        assert status == 2
        assert "unterminated brace set" in err

    @pytest.mark.parametrize(
        "words, message",
        [("{1,2}0011", "unterminated brace set"), ("{1}{2}", "bad brace set")],
    )
    def test_glued_brace_set_is_refused(self, capsys, words, message):
        status, _, err = run(capsys, "analyze", "--words", words)
        assert status == 2
        assert message in err

    def test_long_bad_line_gives_a_short_message(self, capsys, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("n=4\n" + "1" * 10**6 + "\n", encoding="utf-8")
        status, _, err = run(capsys, "analyze", "--code-file", str(path))
        assert status == 2
        assert "(1000000 chars) has length 1000000, expected 4" in err
        assert len(err) < 200

    def test_guard_refusal(self, capsys):
        status, _, err = run(
            capsys, "analyze", "--generator", "full-simplex", "--n", "21"
        )
        assert status == 2
        assert "subsets" in err

    @pytest.mark.parametrize("command", ["analyze", "betti"])
    def test_guard_has_no_option(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--generator", "square", "--max-n", "8"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_negative_random_size_exits_two(self, capsys):
        status, _, err = run(
            capsys, "analyze", "--generator", "random", "--n", "-1"
        )
        assert status == 2
        assert "n=-1" in err

    def test_negative_full_simplex_size_exits_two(self, capsys):
        status, _, err = run(
            capsys, "analyze", "--generator", "full-simplex", "--n", "-1"
        )
        assert status == 2
        assert "n=-1" in err
        assert "Traceback" not in err

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

    def test_missing_file(self, capsys, tmp_path):
        path = tmp_path / "absent.txt"
        status, _, err = run(capsys, "analyze", "--code-file", str(path))
        assert status == 2
        assert f"cannot read {path}" in err

    def test_directory_as_file(self, capsys, tmp_path):
        status, _, err = run(capsys, "betti", "--complex-file", str(tmp_path))
        assert status == 2
        assert f"cannot read {tmp_path}" in err

    def test_invalid_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "latin.txt"
        path.write_bytes(b"\xff\xfe")
        status, _, err = run(capsys, "analyze", "--code-file", str(path))
        assert status == 2
        assert "not UTF-8" in err


class TestEmptyInputs:
    """A code file lists every codeword; a complex file the nonempty facets."""

    def test_code_file_without_words_is_void(self, capsys, tmp_path):
        path = tmp_path / "code.txt"
        path.write_text("n=4\n", encoding="utf-8")
        status, out, err = run(capsys, "analyze", "--code-file", str(path))
        assert status == 2
        assert "void" in err
        assert out == ""

    def test_complex_file_without_facets_is_irrelevant(self, capsys, tmp_path):
        path = tmp_path / "complex.txt"
        path.write_text("n=4\n", encoding="utf-8")
        status, out, _ = run(
            capsys, "betti", "--complex-file", str(path), "--format", "json"
        )
        assert status == 0
        entries = json.loads(out)["entries"]
        # {0}: every vertex is a minimal nonface
        assert sum(e["i"] == 1 for e in entries) == 4

    def test_file_without_vertex_sets_or_declaration(self, capsys, tmp_path):
        path = tmp_path / "complex.txt"
        path.write_text("# nothing\n", encoding="utf-8")
        status, _, err = run(capsys, "analyze", "--complex-file", str(path))
        assert status == 2
        assert "no vertex sets" in err


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "codedim.cli", "analyze", "--generator", "l26"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert "helly: 2" in result.stdout
