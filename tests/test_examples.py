"""Smoke tests keeping every example script runnable.

Each example's ``main()`` is executed in-process with output captured;
these tests fail the moment an API change breaks the documented
walkthroughs.
"""

import importlib.util
import os
import sys
import tempfile

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def _load_example(name: str):
    path = os.path.join(EXAMPLES_DIR, name)
    spec = importlib.util.spec_from_file_location(f"example_{name[:-3]}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _load_example("quickstart.py").main()
        out = capsys.readouterr().out
        assert "download through token: OK" in out
        assert "delete blocked by FILE LINK CONTROL" in out
        assert "after rollback: 1 row(s), ts0002 linked = False" in out

    def test_bandwidth_study(self, capsys):
        _load_example("bandwidth_study.py").main()
        out = capsys.readouterr().out
        assert "45m20s" in out and "4h50m08s" in out
        assert "2h22m08s" in out  # the boundary-crossing upload

    def test_xuis_customisation(self, capsys):
        _load_example("xuis_customisation.py").main()
        out = capsys.readouterr().out
        assert "default XUIS problems: []" in out
        assert "customised XUIS problems: []" in out
        assert "hidden EMAIL column absent: True" in out
        assert "guest ('Public view') sees tables: ['SIMULATION']" in out

    def test_code_upload(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _load_example("code_upload.py").main()
        out = capsys.readouterr().out
        assert "kinetic energy =" in out
        assert "guest upload refused" in out
        assert "sandbox stopped hostile upload" in out

    def test_code_upload_removes_its_sandbox(self, capsys, tmp_path,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        temp_root = tmp_path / "tmp"
        temp_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
        _load_example("code_upload.py").main()
        capsys.readouterr()
        assert not list(temp_root.glob("easia-upload-*"))

    def test_turbulence_portal(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _load_example("turbulence_portal.py").main()
        out = capsys.readouterr().out
        assert "guest raw-download attempt -> HTTP 403" in out
        assert "member raw-download -> HTTP 200" in out
        assert "reduction" in out

    def test_archive_administration(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _load_example("archive_administration.py").main()
        out = capsys.readouterr().out
        assert "persisted statistics: [('FieldStats', 4)]" in out
        assert "after repair: consistent = True" in out
        assert "statistics survived the restore" in out

    def test_ui_gallery(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(
            sys, "argv", ["generate_ui_gallery.py", str(tmp_path / "gallery")]
        )
        _load_example("generate_ui_gallery.py").main()
        out = capsys.readouterr().out
        assert "09_operation_output.pgm" in out
        written = sorted(os.listdir(tmp_path / "gallery"))
        assert len(written) == 9
        with open(tmp_path / "gallery" / "01_query_form.html") as fh:
            assert "sample values" in fh.read()


class TestExistsPredicate:
    def test_exists_and_not_exists(self):
        from repro.sqldb import Database

        db = Database()
        db.execute("CREATE TABLE a (k INTEGER PRIMARY KEY)")
        db.execute("CREATE TABLE b (k INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO a VALUES (1), (2)")
        assert db.execute(
            "SELECT k FROM a WHERE EXISTS (SELECT k FROM b)"
        ).rows == []
        assert len(db.execute(
            "SELECT k FROM a WHERE NOT EXISTS (SELECT k FROM b)"
        )) == 2
        db.execute("INSERT INTO b VALUES (9)")
        assert len(db.execute(
            "SELECT k FROM a WHERE EXISTS (SELECT k FROM b WHERE k > 5)"
        )) == 2

    def test_exists_in_delete(self):
        from repro.sqldb import Database

        db = Database()
        db.execute("CREATE TABLE a (k INTEGER PRIMARY KEY)")
        db.execute("CREATE TABLE flags (k INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO a VALUES (1), (2)")
        db.execute("INSERT INTO flags VALUES (1)")
        db.execute("DELETE FROM a WHERE EXISTS (SELECT k FROM flags)")
        assert db.execute("SELECT COUNT(*) FROM a").scalar() == 0
