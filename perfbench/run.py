"""Known-answer benchmark for the hopfpi batch CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ladder-q --seed 1 --seconds 40 --trace 0

Before every pass the run generates the workload's documents from the
seed (set-up, three times), then it runs the jobs through
``hopfpi.cli.main(argv)`` in this process, one job after another (a closed
loop with one client).  Passes repeat while the next one is expected to
end within `--seconds`, and at least two run.  Every job's exit code and
JSON report are checked against answers derived from theory (see
workloads.py), and its stdout must be the same in every pass.

With ``--trace 0`` the last line reports the end-to-end metrics, each
timing a median over passes.  With ``--trace 1`` the same untraced passes
run first, then one more pass under the layer tracer (tracing.py), and the
last line reports the per-layer metrics; the spans are written to
``.perfbench_out/``.  ``--smoke`` runs one pass at the smallest sizes.
The line before the last records the seed, the environment and the
sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # leave no caches in the checkout

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Set-up runs before every pass rather than once, so that its samples spread
# over the run like the passes do; the host's speed drifts within seconds.
SETUP_PER_PASS = 3
MIN_PASSES = 2
PASS_TIMINGS = ("pass_s", "calculus_s", "structure_s", "enumerate_s")


def import_program():
    """Import hopfpi from this checkout's sources, never from elsewhere."""
    init = SRC / "hopfpi" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no program sources at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import hopfpi
    import hopfpi.cli

    if Path(hopfpi.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported hopfpi from {hopfpi.__file__}, not from {SRC}")
    return hopfpi.cli


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "hopfpi").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass
class JobRun:
    seconds: float
    exit_code: object
    stdout: str
    error: str | None


def run_job(main, job, tracer=None) -> JobRun:
    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return main(list(job.argv))

    error = None
    t0 = perf_counter()
    try:
        code = tracer.run_job(job.label, call) if tracer else call()
    except SystemExit as exc:
        code, error = exc.code, f"SystemExit({exc.code}): {err.getvalue().strip()}"
    except Exception as exc:  # a job that raises is a failed job, not a failed run
        code, error = None, f"{type(exc).__name__}: {exc}"
    return JobRun(perf_counter() - t0, code, out.getvalue(), error)


def run_pass(main, jobs, tracer=None) -> tuple[float, list]:
    gc.collect()
    t0 = perf_counter()
    runs = [run_job(main, job, tracer) for job in jobs]
    return perf_counter() - t0, runs


def judge(job, run: JobRun, reference: str) -> list:
    """Problems with one job execution; empty means it matches the known answer."""
    if run.error is not None:
        return [run.error]
    if run.exit_code != job.exit_code:
        return [f"exit code {run.exit_code}, want {job.exit_code}"]
    problems = []
    if run.stdout != reference:
        problems.append("stdout differs from the first pass")
    if job.check is not None:
        try:
            problems.extend(job.check(json.loads(run.stdout)))
        except ValueError as exc:
            problems.append(f"stdout is not a JSON report: {exc}")
    return problems


def end_to_end(setup: list, passes: list, jobs) -> dict:
    def per_command(command):
        return [sum(r.seconds for job, r in zip(jobs, runs) if job.command == command)
                for _, runs in passes]

    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(dt for dt, _ in passes), "s"),
        "calculus_s": (statistics.median(per_command("calculus")), "s"),
        "structure_s": (statistics.median(per_command("structure")), "s"),
        "enumerate_s": (statistics.median(per_command("enumerate")), "s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }


def per_layer(tracer, traced_pass_s: float, pass_s: float) -> dict:
    secs = tracer.layer_seconds()
    spans = tracer.span_counts()
    calls = tracer.calls
    kernel_s = tracer.seconds

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "linalg.scalar_mul_calls": (calls.get("scalar_mul", 0), "count"),
        "linalg.scalar_add_calls": (calls.get("scalar_add", 0), "count"),
        "linalg.rref_calls": (calls.get("rref", 0), "count"),
        "linalg.rref_s": (kernel_s.get("rref", 0.0), "s"),
        "linalg.matmul_calls": (calls.get("matmul", 0), "count"),
        "linalg.matmul_s": (kernel_s.get("matmul", 0.0), "s"),
        "linalg.perm_matmul_calls": (calls.get("perm_matmul", 0), "count"),
        "linalg.kron_calls": (calls.get("kron", 0), "count"),
        "linalg.kron_s": (kernel_s.get("kron", 0.0), "s"),
        "linalg.solve_calls": (calls.get("solve", 0), "count"),
        "linalg.solve_distinct_ratio": (ratio(tracer.solve_distinct, calls.get("solve", 0)), "ratio"),
        "linalg.col_calls": (calls.get("col", 0), "count"),
        "linalg.apply_calls": (calls.get("apply", 0), "count"),
        "linalg.inverse_calls": (calls.get("inverse", 0), "count"),
        "hopf.verify_s": (secs.get("hopf.verify", 0.0), "s"),
        "hopf.verify_calls": (spans.get("hopf.verify", 0), "count"),
        "calculus.build_s": (secs.get("calculus.build", 0.0), "s"),
        "calculus.covariance_s": (secs.get("calculus.covariance", 0.0), "s"),
        "calculus.covariance_calls": (calls.get("covariance", 0), "count"),
        "calculus.covariance_useful_ratio": (
            ratio(tracer.covariance_distinct, calls.get("covariance", 0)), "ratio"),
        "calculus.to_bimodule_s": (secs.get("calculus.to_bimodule", 0.0), "s"),
        "calculus.leibniz_s": (secs.get("calculus.leibniz", 0.0), "s"),
        "calculus.ad_s": (secs.get("calculus.ad", 0.0), "s"),
        "calculus.enumerate_s": (secs.get("calculus.enumerate", 0.0), "s"),
        "calculus.ideals_found": (tracer.ideals_found, "count"),
        "structure.bimodule_laws_s": (secs.get("structure.bimodule_laws", 0.0), "s"),
        "structure.extract_s": (secs.get("structure.extract", 0.0), "s"),
        "structure.coefficient_maps_s": (secs.get("structure.coefficient_maps", 0.0), "s"),
        "structure.functionals_f_s": (secs.get("structure.functionals_f", 0.0), "s"),
        "structure.functionals_g_s": (secs.get("structure.functionals_g", 0.0), "s"),
        "structure.matrix_R_s": (secs.get("structure.matrix_R", 0.0), "s"),
        "structure.eta_s": (secs.get("structure.eta", 0.0), "s"),
        "structure.intertwiner_s": (secs.get("structure.intertwiner", 0.0), "s"),
        "structure.reconstruct_s": (secs.get("structure.reconstruct", 0.0), "s"),
        "docio.load_s": (secs.get("docio.load", 0.0), "s"),
        "docio.doc_bytes": (tracer.doc_bytes, "bytes"),
        "reporting.render_s": (secs.get("reporting.render", 0.0), "s"),
        "trace.overhead_ratio": (traced_pass_s / pass_s, "ratio"),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass at the smallest sizes")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("HPC_THREADS", None)  # serial, as in the default CLI
    cli = import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    docs = OUT / f"docs-{args.workload}-{args.seed}-{os.getpid()}"
    setup: list = []

    def set_up():
        shutil.rmtree(docs, ignore_errors=True)
        docs.mkdir()
        t0 = perf_counter()
        jobs = workloads.build(args.workload, args.seed, docs, smoke=args.smoke)
        setup.append(perf_counter() - t0)
        return jobs

    try:
        passes = []
        started = perf_counter()
        while True:
            for _ in range(SETUP_PER_PASS):
                jobs = set_up()
            passes.append(run_pass(cli.main, jobs))
            # Stop before a pass that would end after --seconds, so the
            # run length stays near --seconds whatever a pass costs.
            ends_at = perf_counter() - started + passes[-1][0]
            if args.smoke or (len(passes) >= MIN_PASSES and ends_at > args.seconds):
                break
        metrics = end_to_end(setup, passes, jobs)

        tracer = None
        executions = [runs for _, runs in passes]
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_s, traced_runs = run_pass(cli.main, jobs, tracer)
            finally:
                tracer.uninstall()
            executions.append(traced_runs)
            metrics = per_layer(tracer, traced_s, metrics["pass_s"][0])
    finally:
        shutil.rmtree(docs, ignore_errors=True)

    attempted = failed = 0
    failures = []
    for runs in executions:
        for job, run, first in zip(jobs, runs, executions[0]):
            attempted += 1
            problems = judge(job, run, first.stdout)
            if problems:
                failed += 1
                failures.append({"job": job.label, "problems": problems})

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "jobs_per_pass": len(jobs),
        "samples": {"setup_s": len(setup), **{name: len(passes) for name in PASS_TIMINGS}},
        "pass_s_samples": [dt for dt, _ in passes],
        "job_s_samples": [[r.seconds for r in runs] for _, runs in passes],
        "traced_passes": 1 if args.trace else 0,
        "fail_ratio": failed / attempted,
        "failures": failures[:20],
    }
    if tracer is not None:
        info["missing_trace_targets"] = tracer.missing
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"info": info, **tracer.dump()}))
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    for failure in failures:
        print(f"FAILED {failure['job']}: {'; '.join(failure['problems'])}", file=sys.stderr)

    print(json.dumps(info, ensure_ascii=False))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
