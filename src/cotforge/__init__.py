"""cotforge: detection-to-VQA corpus forging with a curriculum scheduler.

The package turns lesion detections plus organ masks into a question/answer/
chain-of-thought corpus, schedules Easy/Medium/Hard training stages with a
domain-aware feedback controller, and ships a small numpy training harness
that exercises the whole loop end to end.
"""

from pathlib import Path as _Path

__version__ = "0.1.0"


def fixture_path(name: str) -> _Path:
    """Path of a bundled data file (scenarios, demo dataset, toy corpus)."""
    return _Path(__file__).parent / "fixtures" / name
