"""Record the output digests that run.py compares at its default seed.

CSV and JSON outputs are byte-identical for a fixed (config, seed), so the
digest of op i at the default seed pins its exact output.  Run from the root
of a checkout, only after a change that alters outputs on purpose:

    python3 perfbench/record_digests.py

It records the first run.DIGEST_OPS ops of each workload.  A failed op
records null; ops past the recorded count are checked by their invariants
alone.
"""

from __future__ import annotations

import json
import sys
import tempfile
from itertools import islice
from pathlib import Path

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from normality_lab import cli

    digests = {}
    run.OUT_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            harness = run.Harness(name, run.DEFAULT_SEED, cli.main, Path(tmp))
            harness.digests = []
            stream = workloads.ops(name, run.DEFAULT_SEED)
            digests[name] = [harness.run(op).digest
                             for op in islice(stream, run.DIGEST_OPS)]
        if harness.unexpected:
            print(f"{name}: unexpected failures, digests not written",
                  file=sys.stderr)
            return 1
        print(f"{name}: {run.DIGEST_OPS} ops recorded", flush=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
