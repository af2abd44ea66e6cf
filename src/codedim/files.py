"""Reading codes and complexes from text files.

Both formats are UTF-8 with one vertex set per line, '#' starts a
comment, and the first non-comment line may declare "n=<int>".  The
lines and the declared n go to ``complexes.parse_vertex_sets``, which
holds the vertex-set grammar and infers n when none is declared.

Empty inputs follow from what each format lists.  A code file lists
every codeword, so "n=4" alone is the empty code: Delta(C) would have
no faces at all, not even the empty one, and building it raises
VoidComplexError (the CLI exits 2).  A complex file lists the nonempty
facets, and every complex contains the empty face, so "n=4" alone is
the irrelevant complex {0} (the CLI exits 0).  A file that cannot be
read, or is not UTF-8, raises InputError naming its path.
"""

from __future__ import annotations

from pathlib import Path

from .complexes import Code, SimplicialComplex, VertexSet, _excerpt, parse_vertex_sets
from .errors import InputError


def _content_lines(text: str) -> tuple[int | None, list[str]]:
    declared: int | None = None
    lines: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if declared is None and not lines and line.lower().startswith("n="):
            try:
                declared = int(line[2:])
            except ValueError:
                raise InputError(f"bad ambient declaration {_excerpt(line)}") from None
            continue
        lines.append(line)
    return declared, lines


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path} is not UTF-8: {exc.reason} at byte {exc.start}"
        ) from None


def read_code(path: str | Path) -> Code:
    """A code file: one codeword per line."""
    declared, lines = _content_lines(_read_text(path))
    return Code.of(lines, declared)


def read_complex(path: str | Path) -> SimplicialComplex:
    """A complex file: one facet per line (non-maximal lines are absorbed)."""
    declared, lines = _content_lines(_read_text(path))
    n, faces = parse_vertex_sets(lines, declared)
    return SimplicialComplex.from_faces(n, [VertexSet.empty(n), *faces])
