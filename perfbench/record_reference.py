"""Record the SHA-256 digests of the cli workload's outputs into reference.json.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known to be right; the committed
reference.json was recorded from the commit that introduced the benchmark.
The member command is not recorded: its point depends on the seed, and
workloads.Cli checks its answer against the flat the point was built on.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import REFERENCE, SIZES, Cli, run_cli, sha256  # noqa: E402


def main() -> None:
    reference = {}
    for size in SIZES:
        digests = {}
        with tempfile.TemporaryDirectory() as tmp:
            workload = Cli(size, seed=1)
            workload.setup(Path(tmp))
            for kind, argv in workload.commands:
                if kind == "member":
                    continue
                argv = [tmp if a is None else a for a in argv]
                rc, out = run_cli(argv)
                if rc != 0:
                    raise SystemExit(f"{' '.join(argv)} exited with {rc}")
                digest = sha256(out)
                key = "export" if kind.startswith("export") else kind
                if digests.setdefault(key, digest) != digest:
                    raise SystemExit(f"{kind} output differs from the other export")
        reference[size] = digests
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
