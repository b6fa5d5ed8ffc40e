"""Record the golden exit code and stdout digest of every job any seed can draw.

    python3 benches/record_goldens.py

Run this at the commit the benchmark was defined on; later commits must
reproduce these outputs byte for byte.  The stall jobs never finish at that
commit: they are recorded as exit 0 with no digest, and are checked by exit
code, verdict and member count alone.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    cli, formats = harness.import_divtop()
    goldens = {}
    for workload in workloads.WORKLOADS:
        jobs = workloads.all_jobs(workload)
        if workload == "stalls":
            goldens.update({job.key: [0, None] for job in jobs})
            continue
        outputs: dict = {}
        timings = []
        start = time.perf_counter()
        for job in jobs:
            if job.key in goldens:
                continue
            outcome = harness.run_job(job, cli, formats, outputs)
            if outcome.timed_out:
                print(f"error: {job.key} missed its deadline", file=sys.stderr)
                return 1
            outputs[job.key] = outcome.stdout
            goldens[job.key] = [outcome.exit_code, harness.digest(outcome.stdout)]
            timings.append((outcome.seconds, outcome.exit_code, job.key))
        codes = {}
        for _, code, _ in timings:
            codes[code] = codes.get(code, 0) + 1
        print(f"{workload}: {len(timings)} jobs in {time.perf_counter() - start:.1f} s, "
              f"exit codes {codes}")
        for seconds, code, key in sorted(timings, reverse=True)[:5]:
            print(f"  {seconds:7.3f} s exit {code} {key[:110]}")
    with open(harness.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
