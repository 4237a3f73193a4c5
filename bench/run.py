"""Benchmark of maq's exact-cohomology batch work, driven through its CLI.

Run from the repository root:

    python3 bench/run.py --workload cellular --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One caller drives ``maq.cli.main(argv)`` in this process over the seeded
case list of the workload, closed-loop (each case starts when the previous
one returns), pass after pass until ``--seconds`` have elapsed.  Every
answer is checked against a second pathway.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` makes one untraced pass and then traced
passes, and reports the per-layer metrics.  The last line of standard
output is one JSON object; the line before it records the run's
environment, sizes and answer digest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5   # fresh interpreters timed for setup_s
TAIL_BEYOND = 10    # cases beyond the reported tail percentile

# Reported times are seconds at a nominal host speed.  The shared host
# this was tuned on (2 vCPUs) drifts in speed by up to a half over tens
# of seconds while the machine itself is otherwise idle, which swamps a
# 30-second run.
# A fixed reference kernel runs right after every case, and each pass's
# seconds are scaled by REF_NOMINAL_S over the kernel's mean time in that
# pass.  The raw seconds and the scales are kept in the run record.
REF_NOMINAL_S = 0.002

END_TO_END = [("wall_s", "s"), ("case_p50_s", "s"), ("case_tail_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s")]

# counters that repeat exactly from run to run for one seed and commit
EXACT_COUNTERS = [name for name, unit in tracing.PER_LAYER
                  if unit in ("count", "bits", "ratio")
                  and not name.startswith("trace.")]


def load_maq(root):
    """Import maq from this checkout's sources, never an installed copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "maq", "__init__.py")):
        raise SystemExit("bench: no maq sources under %s" % src)
    sys.path.insert(0, src)
    import maq
    import maq.cli  # noqa: F401 - the entry point the benchmark drives
    if not os.path.abspath(maq.__file__).startswith(src + os.sep):
        raise SystemExit("bench: maq imported from %s" % maq.__file__)
    return maq


def git_commit(root):
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def case_list_digest(cases):
    h = hashlib.sha256()
    for case in cases:
        h.update(json.dumps([case.name, case.argv, sorted(case.files.items())])
                 .encode())
    return h.hexdigest()


def answer_digest(report):
    """Digest of the emitted groups (or pipeline report) of one case."""
    answer = report.get("groups", report.get("report"))
    return hashlib.sha256(json.dumps(answer, sort_keys=True).encode()) \
        .hexdigest()


def _reference_rows():
    rng = random.Random(7)
    return [{rng.randrange(60): rng.choice((-2, -1, 1, 2, 3))
             for _ in range(5)} for _ in range(60)]


_REFERENCE_ROWS = _reference_rows()


def reference_s():
    """Seconds taken now by a fixed pure-Python kernel (a sparse
    elimination mod a prime, about REF_NOMINAL_S on a quiet core)."""
    t0 = time.perf_counter()
    rows = {i: dict(r) for i, r in enumerate(_REFERENCE_ROWS)}
    while rows:
        prow = rows.pop(min(rows, key=lambda k: len(rows[k])))
        if not prow:
            continue
        j, v = next(iter(prow.items()))
        for row in rows.values():
            c = row.get(j)
            if c:
                for jj, vv in prow.items():
                    nv = (row.get(jj, 0) * v - c * vv) % 10007
                    if nv:
                        row[jj] = nv
                    else:
                        row.pop(jj, None)
    return time.perf_counter() - t0


def speed_scale(ref_times):
    return REF_NOMINAL_S / statistics.mean(ref_times)


def run_pass(cases, cli):
    """One closed-loop pass.  Returns (per-case seconds, outputs, scale):
    the reference kernel runs after every case, untimed, and ``scale``
    converts this pass's seconds to seconds at the nominal host speed."""
    times, outputs, refs = [], [], []
    for case in cases:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(list(case.argv))
        except (Exception, SystemExit) as exc:   # a crash is a failed case
            rc = "%s: %s" % (type(exc).__name__, exc)
        times.append(time.perf_counter() - t0)
        outputs.append((rc, out.getvalue()))
        refs.append(reference_s())
    return times, outputs, speed_scale(refs)


def check_output(case, rc, text):
    """(problem or None, answer digest or None) for one case run."""
    if rc != 0:
        return "exit %s" % (rc,), None
    try:
        report = json.loads(text)
    except ValueError:
        return "output is not JSON", None
    try:
        return case.check(report), answer_digest(report)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return "malformed report: %r" % (exc,), None


class Checker:
    """Checks every case run, and that each pass repeats the first."""

    def __init__(self, cases):
        self.cases = cases
        self.digests = [None] * len(cases)
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, outputs):
        for i, (case, (rc, text)) in enumerate(zip(self.cases, outputs)):
            self.attempted += 1
            problem, digest = check_output(case, rc, text)
            if problem is None:
                if self.digests[i] is None:
                    self.digests[i] = digest
                elif self.digests[i] != digest:
                    problem = "answer differs from the first pass"
            if problem is not None:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append({"case": case.name, "argv": case.argv,
                                          "problem": problem})

    def digest(self):
        h = hashlib.sha256()
        for case, d in zip(self.cases, self.digests):
            h.update(("%s %s\n" % (case.name, d)).encode())
        return h.hexdigest()


def tail(values):
    """(value, percentile): the highest percentile with TAIL_BEYOND values
    beyond it; the maximum when there are too few values."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def time_setup(args, root, workdir, want_digest):
    """Median wall time of fresh interpreters that import maq, build the
    case list and compute the oracle answers."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only",
           "--workdir", workdir]
    times = []
    for _ in range(SETUP_REPEATS):
        refs = [reference_s() for _ in range(10)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=120)
        wall = time.perf_counter() - t0
        refs += [reference_s() for _ in range(10)]
        times.append(wall * speed_scale(refs))
        if proc.returncode != 0 or proc.stdout.strip() != want_digest:
            raise RuntimeError("set-up child failed: %s" % proc.stderr[-2000:])
    return statistics.median(times), times


def measure(args, root):
    os.environ.pop("MAQ_JOBS", None)   # the engine runs serially
    maq = load_maq(root)
    workdir = os.path.join(".bench_work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    t0 = time.perf_counter()
    cases = workloads.build(args.workload, args.seed, workdir, maq)
    setup_here_s = time.perf_counter() - t0
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(root), "MAQ_JOBS": "unset",
            "cases": len(cases), "case_list": case_list_digest(cases),
            "setup_in_process_s": setup_here_s}
    if not args.trace:
        setup_s, setup_runs = time_setup(args, root, workdir,
                                         info["case_list"])
        info["setup_runs_s"] = setup_runs
    os.makedirs(workdir)
    try:
        for case in cases:
            for path, text in case.files.items():
                with open(path, "w") as fh:
                    fh.write(text)
        checker = Checker(cases)
        start = time.perf_counter()
        walls, scales = [], []   # raw pass seconds and their scales
        if args.trace:
            times, outputs, scale = run_pass(cases, maq.cli)
            checker.check(outputs)
            untraced_s = sum(times) * scale
            tracer = tracing.Tracer()
            tracer.install()
            try:
                while not walls or time.perf_counter() - start < args.seconds:
                    times, outputs, scale = run_pass(cases, maq.cli)
                    walls.append(sum(times))
                    scales.append(scale)
                    checker.check(outputs)
            finally:
                tracer.uninstall()
            metrics = tracer.layer_metrics(walls, untraced_s,
                                           statistics.mean(scales))
            info.update(detail=tracer.detail(len(walls)),
                        exact_counters=EXACT_COUNTERS)
            units = dict(tracing.PER_LAYER)
        else:
            per_case = [[] for _ in cases]
            while not walls or time.perf_counter() - start < args.seconds:
                times, outputs, scale = run_pass(cases, maq.cli)
                walls.append(sum(times))
                scales.append(scale)
                for samples, t in zip(per_case, times):
                    samples.append(t * scale)
                checker.check(outputs)
            case_s = [statistics.median(s) for s in per_case]
            tail_s, tail_pct = tail(case_s)
            metrics = {
                "wall_s": statistics.median(
                    w * s for w, s in zip(walls, scales)),
                "case_p50_s": statistics.median(case_s),
                "case_tail_s": tail_s,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": setup_s,
            }
            info.update(case_samples=len(case_s),
                        case_s={c.name: t for c, t in zip(cases, case_s)},
                        tail_percentile=tail_pct, tail_beyond=TAIL_BEYOND)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(".bench_work")
    info.update(passes=len(walls), raw_pass_s=walls, pass_scale=scales,
                answers=checker.digest(),
                ops_failed_frac=checker.failed / checker.attempted,
                failures=checker.failures)
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return info, result


def run_all(args):
    """Every workload in its own process; a readable table per workload."""
    ok = True
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print("%s: failed\n%s" % (workload, proc.stderr[-2000:]))
            ok = False
            continue
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok = ok and result["correct"]
        print("%s  seed=%s commit=%s python=%s nproc=%s MAQ_JOBS=%s"
              % (workload, info["seed"], info["commit"], info["python"],
                 info["nproc"], info["MAQ_JOBS"]))
        for name, m in result["metrics"].items():
            print("  %-46s %14.6g %s" % (name, m["value"], m["unit"]))
        print("  %-46s %14.6g %s   (%d of %d case runs failed)"
              % ("ops_failed_frac", info["ops_failed_frac"], "ratio",
                 result["failed"], result["attempted"]))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=list(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    root = os.getcwd()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        os.environ.pop("MAQ_JOBS", None)
        maq = load_maq(root)
        cases = workloads.build(args.workload, args.seed, args.workdir, maq)
        print(case_list_digest(cases))
        return 0
    info, result = measure(args, root)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
