"""Shared pytest plumbing: surfaces acceptance verdict lines in the summary,
a fixture that makes mask decoding fail, and one that shrinks the forge's
chunk budget."""

import pytest

from cotforge import geometry, jsonl

acceptance_verdicts = []


@pytest.fixture
def no_decoding(monkeypatch):
    """Make `jsonl.rle_decode`, the one mask decoder, raise."""
    def refuse(*args):
        raise AssertionError("a mask was decoded")

    monkeypatch.setattr(jsonl, "rle_decode", refuse)


@pytest.fixture
def chunk_budget(monkeypatch):
    """Set the forge's chunk budget, `geometry.FORGE_CHUNK`, the one place it
    is read, so chunk edges fall inside a small input."""
    def set_budget(runs):
        monkeypatch.setattr(geometry, "FORGE_CHUNK", runs)

    return set_budget


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_verdicts:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)
