"""One set-up of ``table1-compile``, timed from outside by ``run.py``.

Imports the program and builds the ten Table 1 engines (five ontologies,
NY* and NY) exactly as a fresh ``repro compile`` process would before
its first rewriting.  Run as ``python3 perfbench/setup_probe.py``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from repro import OBDASystem  # noqa: E402
from repro.workloads import get_workload  # noqa: E402

ONTOLOGIES = ("V", "S", "U", "A", "P5")

if __name__ == "__main__":
    for name in ONTOLOGIES:
        theory = get_workload(name).theory
        for elimination in (True, False):
            OBDASystem(theory, use_elimination=elimination)
