"""Regenerate the default-seed reference the output checks compare with.

    python3 perfbench/make_references.py

Run it only on a commit whose results are trusted: the file it writes
defines what ``drift-chain`` must reproduce at seed 0.
"""

import json
import os

import run

run.load_library()

import workloads  # noqa: E402  (needs the library on sys.path)


def main():
    os.makedirs(workloads.REFERENCES, exist_ok=True)
    seed = workloads.DEFAULT_SEED
    drift = workloads.DriftChain(seed, None)
    accuracies = [op()[1] for _, op in drift.round()]
    with open(os.path.join(workloads.REFERENCES, "drift-chain.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"seed": seed, "accuracies": accuracies}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
