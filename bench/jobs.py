"""Running one benchmark job through the program's CLI entry point.

A job writes its spec file, then calls ``fibdense.cli.main`` once per
subcommand in the same process, with stdout and stderr captured. Only the
calls into ``main`` are timed: parsing, validation, computation and artifact
writing all happen inside them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass

import fibdense.cli

from workloads import Job

# artifact files per subcommand, digested in this order
ARTIFACTS = {
    "densify": ("report.json", "points.csv"),
    "enriques-bitangents": ("bitangents.json",),
    "enriques-model": (),  # its artifact is stdout
}


@dataclass
class JobResult:
    job: Job
    out_dir: str
    wall_s: float
    statuses: list  # exit status per subcommand run
    stdout: list  # captured stdout per subcommand run
    stderr: list

    @property
    def exited_ok(self) -> bool:
        return len(self.statuses) == len(self.job.commands) and all(s == 0 for s in self.statuses)


def _invoke(command: str, spec_path: str, out_dir: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            # looked up on every call so that the tracer's wrapper is used
            status = fibdense.cli.main([command, spec_path, "--out", out_dir])
        except SystemExit as exc:  # argparse rejecting the arguments
            status = exc.code if isinstance(exc.code, int) else 2
    return status, out.getvalue(), err.getvalue()


def run_job(job: Job, out_dir: str) -> JobResult:
    os.makedirs(out_dir)
    spec_path = os.path.join(out_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(job.spec, fh)
    statuses, stdout, stderr = [], [], []
    start = time.perf_counter()
    for command in job.commands:
        status, out, err = _invoke(command, spec_path, out_dir)
        statuses.append(status)
        stdout.append(out)
        stderr.append(err)
        if status != 0:
            break
    wall = time.perf_counter() - start
    return JobResult(job, out_dir, wall, statuses, stdout, stderr)


def artifact_digest(result: JobResult) -> str:
    """sha256 over every artifact of a successful job, in a fixed order."""
    h = hashlib.sha256()
    for command, out in zip(result.job.commands, result.stdout):
        names = ARTIFACTS[command]
        for name in names:
            with open(os.path.join(result.out_dir, name), "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
        if not names:
            h.update(out.encode("utf-8"))
            h.update(b"\0")
    return h.hexdigest()
