"""Every golden-manifest row, run in process through ``cli.main``, writes
the bytes the manifest holds (see :mod:`tests.golden`)."""

from __future__ import annotations

from tests import golden


def test_every_row_writes_the_manifest_bytes():
    expected = golden.load()
    assert golden.differences(expected, golden.manifest(golden.run_in_process)) == []


def test_the_manifest_covers_every_command_in_both_formats():
    argvs = [row["argv"] for row in golden.load()["rows"]]
    for command in ("check", "euler", "classify", "normalize", "index", "embed", "verify", "gen"):
        for fmt in golden.FORMATS:
            assert any(argv[0] == command and fmt in argv for argv in argvs), (command, fmt)
    assert golden.MANIFEST.stat().st_size < 1 << 20
