"""The ``relations --stats`` JSON with every section's ``seconds`` removed,
as one line: the form the committed stats goldens hold.  As a filter it
reads the stats on stdin and prints that line, for example

    PYTHONPATH=src python -m fareybratteli.cli relations --floor 7 --lambda 2/3 --stats 2>&1 >/dev/null | python tests/stats_without_seconds.py | diff - tests/golden_floor7_stats.json
"""

from __future__ import annotations

import json
import sys


def stats_without_seconds(text: str) -> str:
    """The stats in ``text`` without the seconds of each section, one JSON line."""
    stats = json.loads(text)
    for section in stats.values():
        section.pop("seconds")
    return json.dumps(stats)


if __name__ == "__main__":
    print(stats_without_seconds(sys.stdin.read()))
