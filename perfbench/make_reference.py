"""Rewrite reference.json from the outputs of the current source tree.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right: the benchmark
fails every later commit whose policy tables or eta means differ from what
this writes.
"""

import json
import os
import shutil

from workloads import REFERENCE_SEED, WORKLOADS, make_reference

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    work_dir = os.path.join(HERE, ".work", "reference")
    try:
        refs = {name: make_reference(w, os.path.join(work_dir, name))
                for name, w in WORKLOADS.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump({"seed": REFERENCE_SEED, "workloads": refs}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
