"""Self-test of the benchmark.

Run from the repository root:

    python3 bench/selftest.py

Runs every workload once untraced (seed 0) and once traced (seed 1),
each with ``--seconds 0`` so that it makes a single pass, and checks that
the result line carries exactly the metrics BENCHMARK.json names, with
their units, that every answer passed, and that the environment is
recorded.  Then it plants wrong answers in-process (the program's groups
lose their last torsion factor; a case exits non-zero) and checks that
the answer check counts them as failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
import workloads

ROOT = os.getcwd()


def fail(msg):
    print("FAIL:", msg)
    sys.exit(1)


def run_workload(workload, seed, trace):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0", "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        fail("%s exited %d: %s" % (cmd, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_result(workload, trace, info, result, spec):
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail("%s trace=%d: metrics %s, expected %s" % (workload, trace,
                                                        got, want))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail("%s: %s is not a number" % (workload, name))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if not result["correct"] or result["failed"] or info["ops_failed_frac"]:
        fail("%s trace=%d: failed cases %s" % (workload, trace,
                                               info["failures"]))
    for key in ("seed", "python", "nproc", "commit", "answers"):
        if key not in info:
            fail("%s: run record lacks %s" % (workload, key))
    if info["MAQ_JOBS"] != "unset":
        fail("%s: MAQ_JOBS is not unset" % workload)
    print("ok  %-8s trace=%d  %d metrics, %d case runs, answers %s"
          % (workload, trace, len(got), result["attempted"],
             info["answers"][:12]))


def check_planted_failures(maq):
    """Wrong answers from the program must count as failed cases."""
    workdir = os.path.join(".bench_work", "selftest-%d" % os.getpid())
    cases = workloads.build("koszul", 0, workdir, maq)
    os.makedirs(workdir)
    FinAbGroup = maq.intlattice.FinAbGroup
    original = FinAbGroup.to_json

    def drop_last_torsion(self):
        out = original(self)
        out["torsion"] = out["torsion"][:-1]
        return out

    try:
        for case in cases:
            for path, text in case.files.items():
                with open(path, "w") as fh:
                    fh.write(text)
        honest = run.Checker(cases)
        honest.check(run.run_pass(cases, maq.cli)[1])
        FinAbGroup.to_json = drop_last_torsion
        planted = run.Checker(cases)
        planted.check(run.run_pass(cases, maq.cli)[1])
        FinAbGroup.to_json = original
        broken = run.Checker(cases[:1])
        broken.check([(3, "")])
    finally:
        FinAbGroup.to_json = original
        for case in cases:
            for path in case.files:
                os.remove(path)
        os.rmdir(workdir)
        if not os.listdir(".bench_work"):
            os.rmdir(".bench_work")
    torsion = [c.name for c in cases
               if c.name.startswith(("koszul:lens", "koszul:lens_product"))]
    if honest.failed:
        fail("honest pass failed: %s" % honest.failures)
    if planted.failed < len(torsion):
        fail("dropped torsion counted %d failures, expected at least %d"
             % (planted.failed, len(torsion)))
    if broken.failed != 1:
        fail("a non-zero exit was not counted as failed")
    print("ok  planted wrong answers: %d of %d case runs failed"
          % (planted.failed, planted.attempted))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    maq = run.load_maq(ROOT)
    a = workloads.build("limit", 0, "w", maq)
    b = workloads.build("limit", 1, "w", maq)
    if run.case_list_digest(a) == run.case_list_digest(b):
        fail("two seeds gave the same case list")
    for workload in workloads.WORKLOADS:
        for seed, trace in ((0, 0), (1, 1)):
            info, result = run_workload(workload, seed, trace)
            check_result(workload, trace, info, result, spec)
            if trace and workload == "limit" and \
                    result["metrics"]["exact.rank_and_invariants.calls"][
                        "value"] != 0:
                fail("limit calls rank_and_invariants")
    check_planted_failures(maq)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
