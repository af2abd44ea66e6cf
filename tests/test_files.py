import pytest

from codedim.complexes import SimplicialComplex, VertexSet
from codedim.errors import InputError
from codedim.files import read_code, read_complex


def write(tmp_path, text, name="input.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestCodeFiles:
    def test_basic_with_header_and_comments(self, tmp_path):
        path = write(
            tmp_path,
            "# a comment\n"
            "n=4\n"
            "1100   # trailing comment\n"
            "{2,3}\n"
            "\n"
            "0000\n",
        )
        code = read_code(path)
        assert code.n == 4
        assert code.words == {
            VertexSet.parse("1100"),
            VertexSet.parse("0110"),
            VertexSet.parse("0000"),
        }

    def test_inferred_ambient_from_binary_length(self, tmp_path):
        code = read_code(write(tmp_path, "110\n011\n"))
        assert code.n == 3

    def test_mismatched_binary_lengths_rejected(self, tmp_path):
        with pytest.raises(InputError):
            read_code(write(tmp_path, "110\n0110\n"))

    def test_word_longer_than_declared_rejected(self, tmp_path):
        with pytest.raises(InputError):
            read_code(write(tmp_path, "n=3\n0110\n"))

    def test_brace_only_file_uses_max_vertex(self, tmp_path):
        code = read_code(write(tmp_path, "{1,2}\n{4}\n"))
        assert code.n == 4

    def test_empty_file_needs_declaration(self, tmp_path):
        with pytest.raises(InputError):
            read_code(write(tmp_path, "# nothing here\n"))
        code = read_code(write(tmp_path, "n=3\n", name="declared.txt"))
        assert code.n == 3 and len(code) == 0

    def test_bad_declaration_rejected(self, tmp_path):
        with pytest.raises(InputError):
            read_code(write(tmp_path, "n=three\n110\n"))


class TestComplexFiles:
    def test_facet_list(self, tmp_path):
        d = read_complex(write(tmp_path, "n=4\n1110\n0011\n"))
        assert {f.binary() for f in d.facets} == {"1110", "0011"}

    def test_nonmaximal_lines_are_absorbed(self, tmp_path):
        d = read_complex(write(tmp_path, "1110\n1100\n"))
        assert {f.binary() for f in d.facets} == {"1110"}

    def test_lines_go_straight_to_the_constructor(self, tmp_path):
        d = read_complex(write(tmp_path, "n=4\n{}\n1100\n0100\n1100\n0011\n"))
        assert d == SimplicialComplex.from_faces(4, [0b0011, 0b1100])
        assert {f.binary() for f in d.facets} == {"1100", "0011"}

    def test_no_facets_gives_irrelevant_complex(self, tmp_path):
        d = read_complex(write(tmp_path, "n=3\n"))
        assert not d.facets
        assert d == SimplicialComplex.irrelevant(3)
