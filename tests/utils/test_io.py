"""Tests of atomic artifact writes (:mod:`repro.utils.io`)."""

from __future__ import annotations

import os

import pytest

from repro.utils.io import atomic_write_text


class TestAtomicWriteText:
    def test_writes_content_and_returns_path(self, tmp_path):
        path = tmp_path / "artifact.txt"
        returned = atomic_write_text(path, "hello\n")
        assert returned == path
        assert path.read_text(encoding="utf-8") == "hello\n"

    def test_creates_missing_parents(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "artifact.txt"
        atomic_write_text(path, "x")
        assert path.read_text(encoding="utf-8") == "x"

    def test_overwrites_existing_file(self, tmp_path):
        path = tmp_path / "artifact.txt"
        path.write_text("old", encoding="utf-8")
        atomic_write_text(path, "new")
        assert path.read_text(encoding="utf-8") == "new"

    def test_leaves_no_temp_debris(self, tmp_path):
        path = tmp_path / "artifact.txt"
        atomic_write_text(path, "content")
        assert os.listdir(tmp_path) == ["artifact.txt"]

    def test_failure_leaves_original_intact_and_no_debris(self, tmp_path):
        path = tmp_path / "artifact.txt"
        path.write_text("original", encoding="utf-8")
        with pytest.raises((TypeError, AttributeError)):
            atomic_write_text(path, object())  # not str: write() raises
        assert path.read_text(encoding="utf-8") == "original"
        assert os.listdir(tmp_path) == ["artifact.txt"]
