"""qmeas benchmark: fixed CLI workloads run as subprocess jobs, outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload analytic-large --seed 1 --seconds 40 --trace 0

One client, one job in flight (a closed loop): the benchmark runs the
workload's job list in order, pass after pass (two whole passes at least),
each job a fresh interpreter executing the ``qmeas`` console-script entry
point from ``src/``, while the next job would end within ``--seconds``.
Every job's output is checked against a reference the benchmark computes
itself (``workloads.py``); a nonzero exit, a timeout or a failed check counts
the job as failed.

A shared host's CPU speed can step by a third within seconds, so a run's
figures rest on means over all of its samples rather than on a few of them:
each job's mean wall time over its runs feeds the metrics, and the
``qmeas --version`` samples are spread evenly over the run.

--trace 0 prints the end-to-end metrics: pass_s (the sum over the job list
of each job's mean wall time: one pass), job_s.p50 (the median over the job
list of each job's mean wall time), setup_s (median wall time of
``qmeas --version``: interpreter start, ``import qmeas.cli`` and parser
build) and peak_rss_mb (largest ru_maxrss of any single job).

--trace 1 spends half the time on untraced jobs and half on jobs that run
under ``tracer.py``, and prints per-layer metrics, each for one pass: each
layer's self time, kernel and oracle work counts, import times from
``-X importtime``, the bare interpreter start, the tracing overhead and the
share of the traced pass that no span covers.

The last line of stdout is the JSON result; the line before it is the run
record (machine, versions, backend, threads, commit, seed, every job's argv).
The full record, with every span of a traced run, is written to
``.perfbench/<workload>-seed<seed>-trace<0|1>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

ENTRY = "import sys; from qmeas.cli import main; sys.exit(main())"
JOB_TIMEOUT_S = 120.0
SETUP_SAMPLES = 7
START_SAMPLES = 5

# per-layer metrics: name -> unit
PER_LAYER = {
    "interp.start_s": "s",
    "cli.import_s": "s",
    "equilibrium.import_s": "s",
    "cli.main.self_s": "s",
    "kernels.self_s": "s",
    "kernels.trig_product.self_s": "s",
    "kernels.trig_product.calls": "count",
    "kernels.factor_points": "count",
    "kernels.ns_per_factor_point": "ns",
    "kernels.bytes_computed": "B",
    "curie_weiss.build_model.self_s": "s",
    "curie_weiss.self_s": "s",
    "oracle.self_s": "s",
    "oracle.iter_sector_blocks.self_s": "s",
    "oracle.block_expectations.self_s": "s",
    "oracle.appendix_c_report.self_s": "s",
    "oracle.points": "count",
    "oracle.s_per_point": "s",
    "oracle.block_bytes_computed": "B",
    "equilibrium.self_s": "s",
    "equilibrium.build_curie_weiss_pointer.self_s": "s",
    "equilibrium.final_joint_state.self_s": "s",
    "equilibrium.registration.self_s": "s",
    "qstate.self_s": "s",
    "contextuality.self_s": "s",
    "contextuality.joint_distribution_feasible.self_s": "s",
    "contextuality.joint_distribution_feasible.calls": "count",
    "runs.self_s": "s",
    "ambiguity.self_s": "s",
    "trace.pass_s": "s",
    "trace.residual_s": "s",
    "trace.covered_frac": "frac",
    "trace.overhead_frac": "frac",
}
REGISTRATION = ("equilibrium.meanfield_magnetization", "equilibrium.g_threshold",
                "equilibrium.pointer_limit")


class Runner:
    """Starts one child at a time from the checkout root and reaps it with
    wait4, so each job's own peak RSS is read, not the children's maximum."""

    def __init__(self, root: str, scratch: str):
        self.root = root
        self.scratch = scratch
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.count = 0

    def run(self, argv: list[str]) -> dict:
        self.count += 1
        out_path = os.path.join(self.scratch, f"out{self.count}.txt")
        err_path = os.path.join(self.scratch, f"err{self.count}.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.root, env=self.env)
            killed = []
            timer = threading.Timer(JOB_TIMEOUT_S, lambda: (killed.append(1), proc.kill()))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        os.remove(out_path)
        os.remove(err_path)
        return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode,
                "timed_out": bool(killed),
                "stdout": stdout, "stderr": stderr}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = os.path.join(root, ".git", name)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    return "unknown"


def _import_times(stderr: str) -> dict:
    """Cumulative seconds of the top-level qmeas imports and of
    qmeas.equilibrium, from ``-X importtime`` output."""
    top, nested = {}, {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1]) / 1e6
        except ValueError:
            continue
        raw = parts[2][1:]
        name = raw.strip()
        nested[name] = cumulative
        if raw == name:
            top[name] = cumulative
    return {"cli.import_s": top.get("qmeas", 0.0) + top.get("qmeas.cli", 0.0),
            "equilibrium.import_s": nested.get("qmeas.equilibrium", 0.0)}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Bench:
    def __init__(self, args, root: str, scratch: str):
        self.runner = Runner(root, scratch)
        self.scratch = scratch
        self.jobs = make_jobs(args.workload, args.seed)
        self.py = sys.executable
        self.failures = []
        self.attempted = 0
        self.traced_jobs = []

    def sample(self, argv: list[str], n: int, expect=None) -> list[float]:
        walls = []
        for _ in range(n):
            res = self.runner.run(argv)
            if res["rc"] != 0 or (expect is not None and not res["stdout"].startswith(expect)):
                raise SystemExit(f"perfbench: {argv[1:]} failed (exit {res['rc']}): "
                                 f"{res['stderr'][-500:]}")
            walls.append(res["wall_s"])
        return walls

    def run_job(self, i: int, traced: bool) -> dict:
        job = self.jobs[i]
        if traced:
            spans = os.path.join(self.scratch, f"spans{i}.json")
            prefix = [self.py, os.path.join(HERE, "tracer.py"), spans, "--"]
        else:
            prefix = [self.py, "-c", ENTRY]
        res = self.runner.run(prefix + job.argv)
        self.attempted += 1
        if res["timed_out"]:
            reason = "timeout"
        elif res["rc"] != 0:
            reason = f"exit {res['rc']}: {res['stderr'].strip()[-300:]}"
        else:
            try:
                reason = job.check(res["stdout"])
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                reason = f"unreadable output: {exc!r}"
        if reason is not None:
            self.failures.append({"argv": job.argv, "reason": reason, "traced": traced})
        entry = {"job": i, "cmd": job.argv[0], "wall_s": res["wall_s"], "rss_mb": res["rss_mb"],
                 "ok": reason is None}
        if traced and os.path.isfile(spans):
            with open(spans, encoding="utf-8") as fh:
                trace = json.load(fh)
            os.remove(spans)
            entry["layers"] = tracer.summarize_job(trace)
            self.traced_jobs.append({"argv": job.argv, **trace})
        return entry

    def run_phase(self, budget_s: float, traced: bool, min_passes: int,
                  setup: list | None = None) -> list[dict]:
        """Runs the job list in order, pass after pass: min_passes whole
        passes at least, then further jobs while the next one, at its last
        wall time, would end within budget_s.  With a setup list,
        SETUP_SAMPLES runs of ``qmeas --version`` are spread evenly over the
        budget and their wall times appended to it."""
        version = [self.py, "-c", ENTRY, "--version"]
        n = len(self.jobs)
        entries, last = [], {}
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if setup is not None and len(setup) < SETUP_SAMPLES \
                    and elapsed >= len(setup) * budget_s / SETUP_SAMPLES:
                setup += self.sample(version, 1, expect="qmeas ")
                continue
            k = len(entries)
            if k >= min_passes * n and elapsed + last[k % n] > budget_s:
                break
            entry = self.run_job(k % n, traced)
            entry["pass"] = k // n
            last[k % n] = entry["wall_s"]
            entries.append(entry)
        if setup is not None:
            setup += self.sample(version, SETUP_SAMPLES - len(setup), expect="qmeas ")
        return entries


def by_job(entries: list[dict], value) -> list[float]:
    """Each job's mean of value(entry) over its runs in the phase, in job-list
    order; their sum is one pass's worth."""
    runs = {}
    for e in entries:
        runs.setdefault(e["job"], []).append(value(e))
    return [statistics.fmean(runs[i]) for i in sorted(runs)]


def _wall(e: dict) -> float:
    return e["wall_s"]


def end_to_end(entries: list[dict], setup: list[float]) -> dict:
    means = by_job(entries, _wall)
    return {
        "pass_s": (sum(means), "s"),
        "job_s.p50": (_median(means), "s"),
        "setup_s": (_median(setup), "s"),
        "peak_rss_mb": (max(e["rss_mb"] for e in entries), "MB"),
    }


def per_layer(traced: list[dict], untraced: list[dict], extra: dict) -> dict:
    """Per-layer metrics for one pass: each job's mean over its traced runs,
    summed over the job list."""
    traced = [e for e in traced if "layers" in e]

    def total(kind: str, *keys: str) -> float:
        return sum(by_job(traced, lambda e: sum(e["layers"][kind].get(k, 0) for k in keys)))

    def name(*keys: str) -> float:
        return total("self_by_name", *keys)

    def count(kind: str, key: str) -> int:
        return round(total(kind, key))

    fp = count("counters", "kernels.factor_points")
    points = count("counters", "oracle.points")
    kern = name("kernels.trig_product")
    pass_s = sum(by_job(traced, _wall))
    covered = sum(by_job(traced, lambda e: e["layers"]["covered_s"]))
    out = {
        "cli.main.self_s": name("cli.main"),
        "kernels.trig_product.self_s": kern,
        "kernels.trig_product.calls": count("calls", "kernels.trig_product"),
        "kernels.factor_points": fp,
        "kernels.ns_per_factor_point": kern / fp * 1e9 if fp else 0.0,
        "kernels.bytes_computed": 8 * fp,
        "curie_weiss.build_model.self_s": name("curie_weiss.build_model"),
        "oracle.iter_sector_blocks.self_s": name("oracle.iter_sector_blocks"),
        "oracle.block_expectations.self_s": name("oracle.block_expectations"),
        "oracle.appendix_c_report.self_s": name("oracle.appendix_c_report"),
        "oracle.points": points,
        "oracle.s_per_point": total("self_by_module", "oracle") / points if points else 0.0,
        "oracle.block_bytes_computed": count("counters", "oracle.block_bytes_computed"),
        "equilibrium.build_curie_weiss_pointer.self_s":
            name("equilibrium.build_curie_weiss_pointer"),
        "equilibrium.final_joint_state.self_s": name("equilibrium.final_joint_state"),
        "equilibrium.registration.self_s": name(*REGISTRATION),
        "contextuality.joint_distribution_feasible.self_s":
            name("contextuality.joint_distribution_feasible"),
        "contextuality.joint_distribution_feasible.calls":
            count("calls", "contextuality.joint_distribution_feasible"),
        "trace.pass_s": pass_s,
        "trace.residual_s": pass_s - covered,
        "trace.covered_frac": covered / pass_s,
        "trace.overhead_frac": pass_s / sum(by_job(untraced, _wall)) - 1.0,
    }
    for mod in tracer.LAYER_MODULES:
        if f"{mod}.self_s" in PER_LAYER:
            out[f"{mod}.self_s"] = total("self_by_module", mod)
    out.update(extra)
    return {k: (out[k], PER_LAYER[k]) for k in PER_LAYER}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qmeas", "cli.py")):
        print("perfbench: no qmeas sources under src/; run from the repository root",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench")
    os.makedirs(work, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=work)
    try:
        return _run(args, root, work, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, root: str, work: str, scratch: str) -> int:
    bench = Bench(args, root, scratch)
    probe = bench.runner.run([bench.py, os.path.join(HERE, "probe.py")])
    if probe["rc"] != 0:
        print(f"perfbench: probe failed: {probe['stderr'][-500:]}", file=sys.stderr)
        return 1
    info = json.loads(probe["stdout"].strip().splitlines()[-1])

    setup = []
    extra = {}
    if args.trace:
        extra["interp.start_s"] = _median(bench.sample([bench.py, "-c", "pass"], START_SAMPLES))
        imports = []
        for _ in range(START_SAMPLES):
            res = bench.runner.run([bench.py, "-X", "importtime", "-c", "import qmeas.cli"])
            if res["rc"] != 0:
                print(f"perfbench: import failed: {res['stderr'][-500:]}", file=sys.stderr)
                return 1
            imports.append(_import_times(res["stderr"]))
        for key in ("cli.import_s", "equilibrium.import_s"):
            extra[key] = _median([i[key] for i in imports])
        untraced = bench.run_phase(args.seconds / 2.0, traced=False, min_passes=1)
        traced = bench.run_phase(args.seconds / 2.0, traced=True, min_passes=1)
        metrics = per_layer(traced, untraced, extra)
        entries = untraced + traced
    else:
        # two passes at least, so every job's mean has two samples
        entries = bench.run_phase(args.seconds, traced=False, min_passes=2, setup=setup)
        metrics = end_to_end(entries, setup)

    failed = len(bench.failures)
    gate = info["kernel_gate"]
    recur_seeds = [int(j.argv[j.argv.index("--seeds") + 1])
                   for j in bench.jobs if j.argv[0] == "recur"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 job in flight",
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": info["python"],
        "numpy": info["numpy"],
        "scipy": info["scipy"],
        "qmeas": info["qmeas"],
        "kernels_backend": info["backend"],
        "kernel_gate": gate,
        "QMEAS_THREADS": os.environ.get("QMEAS_THREADS"),
        "max_workers": info["max_workers"],
        "recur_workers": min([info["max_workers"]] + recur_seeds) if recur_seeds else None,
        "git_commit": _git_commit(root),
        "jobs_per_pass": len(bench.jobs),
        "job_argv": [j.argv for j in bench.jobs],
        "jobs_run": len(entries),
        "attempted": bench.attempted,
        "failed": failed,
        "failed_frac": failed / bench.attempted,
        "failures": bench.failures,
        "setup_samples_s": setup,
        "job_wall_s": [[e["pass"], e["cmd"], e["wall_s"], e["rss_mb"]] for e in entries],
    }
    with open(os.path.join(work, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"record": record, "metrics": metrics, "traced_jobs": bench.traced_jobs}, fh)
    if args.trace:
        print(f"{'layer metric':<48} {'value':>14}  unit")
        for k, (v, unit) in metrics.items():
            print(f"{k:<48} {v:>14.6g}  {unit}")
    for f in bench.failures:
        print(f"FAILED {' '.join(f['argv'])}: {f['reason']}", file=sys.stderr)
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": failed == 0 and bool(gate["ok"]),
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
