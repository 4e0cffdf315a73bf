"""Build the snapshot format v2 fixtures that tests/test_snapshot.py pins.

    PYTHONPATH=src python tests/snapshot_v2/make.py

saves the index of each kind that snapshot_v1.build makes (20 documents,
dim 4, three removed and one replaced) as <kind>.snap next to this file,
after checking that its hits are the ones snapshot_v1/hits.json records.
The tests compare today's saves with these bytes, so any drift in format
v2 shows, and load each of them hit for hit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from snapshot_v1 import make as snapshot_v1  # noqa: E402


def main() -> None:
    recorded = json.loads((snapshot_v1.HERE / "hits.json").read_text())
    for kind in snapshot_v1.KINDS:
        index = snapshot_v1.build(kind)
        assert snapshot_v1.hits_of(index) == recorded[kind], kind
        index.save(HERE / f"{kind}.snap")


if __name__ == "__main__":
    main()
