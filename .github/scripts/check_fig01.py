"""Diff a regenerated Fig. 1 against the committed golden result.

    python .github/scripts/check_fig01.py <results dir> <what produced it>

Exits 1, printing both documents, when ``<results dir>/fig01_model_mix.json``
differs from ``results/fig01_model_mix.json``.
"""

import json
import sys

results, label = sys.argv[1], " ".join(sys.argv[2:]) or "this run"
with open(f"{results}/fig01_model_mix.json") as fresh_file:
    fresh = json.load(fresh_file)
with open("results/fig01_model_mix.json") as golden_file:
    golden = json.load(golden_file)
if fresh != golden:
    print(f"fig01 under {label} diverged from the golden")
    print("fresh: ", json.dumps(fresh, indent=2, sort_keys=True))
    print("golden:", json.dumps(golden, indent=2, sort_keys=True))
    sys.exit(1)
print(f"fig01 reproduces the golden result under {label}")
