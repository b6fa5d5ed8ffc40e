"""Every job any benchmark seed can draw prints its recorded output.

The benchmark's goldens hold the exit code and a stdout digest of every job
of the gated workloads, recorded from the commit that added them.  Running
them all here holds each change to byte-identical JSON, DOT and text output
and to the same verdicts and exit codes.
"""

import sys
from pathlib import Path

BENCHES = Path(__file__).resolve().parent.parent / "benches"
sys.path.insert(0, str(BENCHES))

import harness  # noqa: E402
import workloads  # noqa: E402


def test_every_golden_job_prints_its_recorded_output():
    cli, formats = harness.import_divtop()
    goldens = harness.load_goldens()
    failed = []
    total = 0
    for workload in workloads.GATED:
        # in list order, so that each read-back finds the JSON document it reads
        outputs = {}
        for job in workloads.all_jobs(workload):
            outcome = harness.run_job(job, cli, formats, outputs)
            outputs[job.key] = outcome.stdout
            why = harness.failure(job, outcome, goldens.get(job.key), cli)
            total += 1
            if why:
                failed.append(f"{workload}: {job.key}: {why}")
    assert total >= 1616  # the gated workloads' jobs, read-backs included
    assert not failed, "\n".join(failed)
