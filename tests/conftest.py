"""Shared pytest plumbing: surfaces acceptance verdict lines in the summary,
and a fixture that makes every mask decode fail."""

import pytest

from cotforge import forge, geometry, jsonl

acceptance_verdicts = []


@pytest.fixture
def no_decoding(monkeypatch):
    """Make every way to decode a mask raise: the run expansion wherever it is
    looked up, `jsonl.rle_decode` and `OrganMask.mask`."""
    def refuse(*args):
        raise AssertionError("a mask was decoded")

    for module in (geometry, forge, jsonl):
        monkeypatch.setattr(module, "expand_runs", refuse)
    monkeypatch.setattr(jsonl, "rle_decode", refuse)
    monkeypatch.setattr(forge.OrganMask, "mask", property(refuse))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_verdicts:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)
