"""Record the CSV digests of pass 0 of every workload and input variant.

The digests in ``digests.json`` were recorded once, at the commit that added
the benchmark; ``run.py`` reports how many outputs still match them
(``csv_identical``).  Re-recording them would hide a change of CSV bytes, so
the script refuses to run while ``digests.json`` exists:

    python3 bench/record_digests.py

``certify`` has one entry, because its inputs do not depend on the seed;
every other workload has one entry per input variant.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def record(workload, variant):
    workdir = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        r = run.Run(workload, variant, workdir)
        outputs = r.cli_pass()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if r.failed:
        sys.exit(f"{workload} variant {variant}: {r.problems}")
    print(workload, variant, flush=True)
    return {o.case.label: run.digest(o.text) for o in outputs}


def main():
    path = run.BENCH / "digests.json"
    if path.exists():
        sys.exit(f"{path.name} exists; its digests are recorded once and never refreshed")
    run.WORK.mkdir(exist_ok=True)
    table = {workload: {str(v): record(workload, v) for v in range(workloads.VARIANTS)}
             for workload in workloads.WORKLOADS if workload != "certify"}
    table["certify"] = record("certify", 0)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
