"""Fixed, program-independent work timed beside every measurement.

The benchmark host is shared: the same call's wall time moves by up to
1.6x between runs minutes apart, and by less within a run. Timing a fixed
piece of stdlib work right before and after each call tracks how fast the
machine runs at that moment, and ``run.py`` scales every reported time by
it. Each kind resembles the hot path of the workloads that use it, because
different kinds of work slow down by different amounts under contention.
Nothing here imports tweetlex, so a change to the program never changes
the calibration.
"""

from __future__ import annotations

import difflib
import json
import random
import re
from datetime import datetime
from time import perf_counter

# Seconds each kind takes on the reference machine that reported times are
# scaled to (about its median on a 2-core x86-64 box running Python 3.11).
REFERENCE_S = {"text": 0.085, "difflib": 0.075}

_LINES = [
    json.dumps({"id": str(i), "created_at": f"2021-03-{i % 28 + 1:02d}T10:{i % 60:02d}:00",
                "text": f"Some Text, with words {i} and more: http://x.y/{i * 7}"})
    for i in range(2000)
]
_WORDS = frozenset("some with words and more".split())
_NON_WORD = re.compile(r"[^\w']+")

_rng = random.Random(7)
_CANDIDATES = sorted(
    "".join(_rng.choice("abcdefghiklmnoprstuvw") for _ in range(_rng.randint(3, 11)))
    for _ in range(3000)
)
_QUERIES = [_CANDIDATES[i][::-1] + "e" for i in range(0, 3000, 150)]


def _text() -> None:
    for _ in range(6):
        for line in _LINES:
            record = json.loads(line)
            datetime.fromisoformat(record["created_at"])
            tokens = _NON_WORD.sub(" ", record["text"].lower()).split()
            sum(1 for token in tokens if token in _WORDS)


def _difflib() -> None:
    for query in _QUERIES:
        difflib.get_close_matches(query, _CANDIDATES, n=1, cutoff=0.85)


_KINDS = {"text": _text, "difflib": _difflib}


def calibrate(kind: str) -> float:
    """Seconds taken by one pass of the fixed work of this kind."""
    start = perf_counter()
    _KINDS[kind]()
    return perf_counter() - start

