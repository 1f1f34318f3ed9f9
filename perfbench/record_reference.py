"""Record the expected campaign outputs the benchmark checks against.

For each of ``workloads.RECORDED_SEEDS``, runs the monolithic ``wide``
campaign on it and the ``paper`` campaign on it and on the seeds a
``paper`` run derives from it (untraced, each in its own process), and
stores their summary digest, event count and record count in
``reference.json``.  ``sharded`` is checked against ``wide``'s entry.
Entries already recorded are kept.  Re-record (delete the file first)
only when a change is meant to alter simulation or analysis output, and
say so in that change::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from run import REFERENCE_PATH, ROOT, SRC, WORK_ROOT, _campaign, in_child, load_reference

TIMEOUT_S = 300.0


def main() -> int:
    sys.path.insert(0, SRC)
    from workloads import PAPER_SEEDS, RECORDED_SEEDS, WORKLOADS

    try:
        reference = load_reference()
    except FileNotFoundError:
        reference = {"seeds": {}}
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=WORK_ROOT)
    try:
        for seed in RECORDED_SEEDS:
            # A paper run spreads its campaigns over seeds derived from --seed.
            paper = WORKLOADS["paper"]
            jobs = [("wide", seed)] + [
                ("paper", paper.campaign_seed(seed, index))
                for index in range(PAPER_SEEDS)
            ]
            for name, campaign_seed in jobs:
                if name in reference["seeds"].get(str(campaign_seed), {}):
                    continue
                sample = in_child(TIMEOUT_S, _campaign, name, campaign_seed, "plain", workdir)
                reference["seeds"].setdefault(str(campaign_seed), {})[name] = {
                    "digest": sample["digest"],
                    "events": sample["events"],
                    "records": sample["records"],
                }
                print(f"seed {campaign_seed} {name}: {sample['events']} events, "
                      f"digest {sample['digest'][:16]}")
    finally:
        os.rmdir(workdir)
    reference["seeds"] = dict(sorted(reference["seeds"].items(), key=lambda item: int(item[0])))
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(REFERENCE_PATH, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
