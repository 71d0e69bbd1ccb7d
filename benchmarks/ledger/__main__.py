"""Entry point for ``python -m benchmarks.ledger`` and for running the
directory itself (``python3 benchmarks/ledger ...``, the form
``BENCHMARK.json`` names: a command may mention no path outside the
benchmark's own directory).  Either way the checkout's ``src/`` is put
on ``sys.path`` so the benchmark measures the code it is checked out
with, installed or not."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    # Never fall back to an installed copy: the numbers would be another
    # commit's.
    sys.exit(f"ledger: no src/repro beside {ROOT / 'benchmarks'}; nothing to measure")
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.ledger.cli import main  # noqa: E402

sys.exit(main())
