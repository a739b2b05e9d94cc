"""Record the seed-0 outputs the correctness gates compare against.

    python3 perfbench/record_golden.py

Writes perfbench/golden.json: column digests of the README-run CSVs, the
inline system's lie-grid labels, and the patchwork check counts. Re-record
only in a change that explains why these outputs change.
"""

import json
import os
import shutil
import sys
from pathlib import Path

from run import ROOT, import_sdstab


def main():
    import_sdstab()
    import workloads

    workdir = ROOT / ".bench_out" / ("record-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        sim = workloads.SimStatedep(0, False, str(workdir))
        digests = sim.inspect(sim.run()).outputs["digests"]
        lie = workloads.LieGrid(0, False, str(workdir))
        inline = [lab if isinstance(lab, str) else lab[2] for lab in lie.inspect(lie.run()).outputs]
        pw = workloads.PatchworkVerify(0, False, str(workdir))
        checks = pw.inspect(pw.run()).outputs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    data = {
        "sim-statedep": {"digests": digests},
        "lie-grid": {"inline_labels": inline},
        "patchwork-verify": {"checked": {c.name: c.checked for c in checks}},
    }
    Path(workloads.GOLDEN_PATH).write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
