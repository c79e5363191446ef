"""Record the seed-0 output digests that every benchmark run checks against.

    python3 perfbench/record_digests.py

Runs each workload's set-up and timed commands once at seed 0 (the
generator's own labels) and writes perfbench/digests.json.  Run it only
at a commit whose outputs are the reference; a later commit must
reproduce these bytes.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, spawn
from workloads import WORKLOADS, digests


def main():
    refs = {}
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        workdir = Path(tempfile.mkdtemp(dir=work_root))
        try:
            for cmd in workload.setup + workload.timed:
                out, err = workdir / ".stdout", workdir / ".stderr"
                rc = spawn([sys.executable, "-m", "avec", *cmd.args], workdir, out, err)[0]
                if rc != 0 or err.read_bytes():
                    raise SystemExit(f"{cmd.key}: exit {rc}, {err.read_text()}")
                refs[cmd.key] = digests(cmd, out.read_bytes(), workdir)
        finally:
            shutil.rmtree(workdir)
    work_root.rmdir()
    (HERE / "digests.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(refs)} commands")


if __name__ == "__main__":
    main()
