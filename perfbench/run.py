"""gridsweep benchmark: run one workload and print its metrics.

Run from the root of a gridsweep checkout::

    python3 perfbench/run.py --workload ensemble --seed 0 --seconds 25 --trace 0

Workloads are ``ensemble``, ``big_slab`` and ``campaign`` (see README.md in
this directory).  With ``--trace 0`` the last stdout line is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced pass and the tracing overhead.  The exit code is 0 when
every output check passed, 1 when a check failed or the workload crashed,
and 2 when the current directory is not a gridsweep checkout.

Set-up is sampled in SETUP_SAMPLES separate processes; the last of them runs
the workload.  The run record, including the machine and the input sizes, is
written to ``.perfbench_runs/results/``, next to the spans of a traced run
(gzipped CSV).  Output digests and exact counts per seed go to
``.perfbench_runs/determinism/``, so that a rerun of the same code at the same
seed is checked against the first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # the whole command must end within 180 s


class BenchError(RuntimeError):
    pass


def _child(args, work: Path, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Run workloads.py once; return (launch time, its result)."""
    result = work / "result.json"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    t_launch = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        try:  # also stops pool workers that a crashed or timed-out workload left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if rc != 0 or not result.is_file():
        raise BenchError("workload process " + ("timed out" if rc is None else f"exited {rc}"))
    return t_launch, json.loads(result.read_text())


def _source_digest(root: Path) -> str:
    """Digest of everything that determines the outputs: program, scenarios, benchmark."""
    h = hashlib.sha256()
    for top in (root / "src", root / "scenarios", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _machine() -> dict:
    info = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": platform.processor() or platform.machine(), "cgroup_cpu_limit": None}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            info["cgroup_cpu_limit"] = f"{path}: {Path(path).read_text().strip()}"
            break
        except OSError:
            continue
    return info


def _check_determinism(runs: Path, args, source: str, passes, counts) -> list[str]:
    """Compare this run's digest and counts with an earlier run of the same code and seed."""
    problems = []
    digests = sorted({d for p in passes for d in p["digests"]})
    if len(digests) != 1:
        problems.append(f"rounds of one run wrote different outputs: {digests}")
    current = {"source": source, "digest": digests[0], "counts": counts}
    path = runs / "determinism" / f"{args.workload}-seed{args.seed}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier["source"] == source:
            if earlier["digest"] != current["digest"]:
                problems.append(f"output digest {current['digest']} differs from the earlier "
                                f"run at this seed ({earlier['digest']})")
            if earlier["counts"] and current["counts"] and earlier["counts"] != current["counts"]:
                problems.append(f"counts {current['counts']} differ from the earlier run at "
                                f"this seed ({earlier['counts']})")
            current["counts"] = current["counts"] or earlier["counts"]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(current, indent=1))
    os.replace(tmp, path)
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="run one gridsweep benchmark workload")
    p.add_argument("--workload", choices=("ensemble", "big_slab", "campaign"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gridsweep" / "cli.py").is_file() or \
            not (root / "scenarios" / "table2.scenario").is_file():
        print("perfbench: no gridsweep checkout here (src/gridsweep, scenarios/); "
              "run from the repository root", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    runs = root / ".perfbench_runs"
    (runs / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    work = runs / f"tmp-{os.getpid()}"
    setup_s = []
    try:
        for i in range(SETUP_SAMPLES):
            t_launch, res = _child(args, work / str(i), deadline, setup_only=i < SETUP_SAMPLES - 1)
            setup_s.append(res["t_ready"] - t_launch)
        if args.trace:
            os.replace(work / str(SETUP_SAMPLES - 1) / "spans.csv.gz",
                       runs / "results" / f"{name}-spans.csv.gz")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    source = _source_digest(root)
    passes = [res["untraced"]] + ([res["traced"]] if args.trace else [])
    problems = _check_determinism(runs, args, source, passes, res.get("counts"))
    problems += [problem for pass_ in passes for problem in pass_["problems"]]
    attempted = sum(pass_["attempted"] for pass_ in passes)
    failed = sum(pass_["failed"] for pass_ in passes)
    if problems and not failed:
        failed = 1  # a determinism mismatch fails the run as a whole

    u = res["untraced"]
    e2e = {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "op_s_p50": {"value": u["op_s_p50"], "unit": "s"},
        "throughput_per_s": {"value": u["throughput_per_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    metrics = res["layers"] if args.trace else e2e
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": _machine(), "versions": res["versions"], "sizes": res["sizes"],
        "setup_samples_s": setup_s, "source_digest": source, "counts": res.get("counts"),
        "untraced": u, "traced": res.get("traced"), "end_to_end": e2e,
        "per_layer": res.get("layers"), "problems": problems,
    }
    (runs / "results" / f"{name}.json").write_text(json.dumps(record, indent=1))

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: "
          f"{res['op_name']}={u['op_s_p50']:.4f} s (n={u['op_samples']}), "
          f"{res['rate_name']}={u['throughput_per_s']:.4f} 1/s, "
          f"peak_rss_mb={res['peak_rss_mb']:.1f} MB, setup_s={e2e['setup_s']['value']:.4f} s, "
          f"failed_ratio={failed}/{attempted}, rounds={u['rounds']}")
    if args.trace:
        overhead = res["layers"]["trace.overhead_s"]["value"]
        print(f"tracing overhead: traced - untraced {res['op_name']} = {overhead:+.4f} s "
              f"({res['layers']['trace.overhead_ratio']['value']:+.1%})")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, allow_nan=False))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
