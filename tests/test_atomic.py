"""Tests for the one atomic file writer (repro.atomic)."""

import os

import pytest

from repro.atomic import atomic_write


class TestAtomicWrite:
    def test_creates_missing_directories_and_leaves_no_temp_file(
        self, tmp_path
    ):
        path = tmp_path / "a" / "b" / "out.json"
        atomic_write(str(path), b"first")
        atomic_write(str(path), b"second")
        assert path.read_bytes() == b"second"
        assert os.listdir(path.parent) == ["out.json"]

    def test_failed_replace_keeps_the_old_file_and_unlinks_the_temp(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "out.json"
        atomic_write(str(path), b"old")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            atomic_write(str(path), b"new")
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.json"]
