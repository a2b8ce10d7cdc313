"""Byte-for-byte regression against the frozen golden artifacts.

Each golden file sits next to the manifest that produced it; regenerating
from the manifest must reproduce the bytes exactly (no timestamps, fixed
summation order).  A golden report.json is compared key by key: new keys are
allowed, every frozen key must keep its exact value.
"""

import json
from pathlib import Path

import pytest

from cvngs.cli import EXIT_OK, run

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("fig2a.manifest.json", "fig2a.csv", "fig2a.csv"),
    ("eps_fock_R09.manifest.json", "state.csv", "eps_fock_R09.csv"),
    ("eps_pcat_lossy_R05.manifest.json", "state.csv", "eps_pcat_lossy_R05.csv"),
]


def first_difference(name: str, got: bytes, want: bytes) -> str:
    """Where `got` first departs from the frozen bytes, with both lines."""
    got_lines, want_lines = got.split(b"\n"), want.split(b"\n")
    pairs = zip(got_lines, want_lines)
    i = next((k for k, (a, b) in enumerate(pairs) if a != b),
             min(len(got_lines), len(want_lines)))

    def line(lines):
        return repr(lines[i].decode(errors="replace")) if i < len(lines) else "<end of file>"
    return (f"{name} drifted from the frozen output at line {i + 1}:\n"
            f"  frozen:   {line(want_lines)}\n  produced: {line(got_lines)}")


@pytest.mark.parametrize("manifest_name,artifact,golden_name", CASES)
def test_golden_regression(tmp_path, manifest_name, artifact, golden_name):
    manifest = json.loads((GOLDEN / manifest_name).read_text())
    assert run(manifest, tmp_path) == EXIT_OK
    got = (tmp_path / artifact).read_bytes()
    want = (GOLDEN / golden_name).read_bytes()
    assert got == want, first_difference(golden_name, got, want)


def leaves(obj, path=()):
    """{key path: value} over the leaves of a JSON object; a list is a leaf."""
    if not isinstance(obj, dict):
        return {path: obj}
    return {p: v for key, value in obj.items() for p, v in leaves(value, (*path, key)).items()}


@pytest.mark.parametrize("name", ["eps_fock_R09", "eps_pcat_lossy_R05"])
def test_report_keeps_golden_keys(tmp_path, name):
    # report.json may gain diagnostic keys; every frozen key keeps its exact value
    assert run(json.loads((GOLDEN / f"{name}.manifest.json").read_text()), tmp_path) == EXIT_OK
    got = leaves(json.loads((tmp_path / "report.json").read_text()))
    want = leaves(json.loads((GOLDEN / f"{name}.report.json").read_text()))
    moved = {".".join(path): (v, got.get(path, "<missing>"))
             for path, v in want.items() if path not in got or got[path] != v}
    assert not moved, f"{name} report.json keys moved, as (frozen, produced): {moved}"


def test_first_difference_names_line_and_texts():
    msg = first_difference("x.csv", b"X,P\n1,2\n3,4\n", b"X,P\n1,2\n3,5\n")
    assert "at line 3" in msg and "frozen:   '3,5'" in msg and "produced: '3,4'" in msg
