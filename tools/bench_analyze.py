"""Paired parent/change runs of the benchmark, with the MD step's cost and
bits, the analysis path's outputs and its cost at 1,000 jobs, as one JSON
record.

Run from anywhere, with a checkout of each commit (``git archive`` of it)::

    python3 tools/bench_analyze.py --parent DIR --change DIR \
        --out BENCH_<label>.json --first-seed N

The workloads, the end-to-end metrics with their better direction and the run
length all come from the change's ``BENCHMARK.json``. The record holds four
parts, each measured on both checkouts:

- ``pairs``: the benchmark command with ``--workload W --seed S --seconds
  <run_seconds> --trace 0`` in each checkout, ``PAIRS`` pairs per workload on
  seeds N, N+1, ..., alternating which side runs first (odd seeds: parent
  first); ``summary`` gives, per workload, each metric's medians, the parent's
  interquartile range and the change's wins.
- ``md``: for each sweep workload of ``perfbench/workloads.WORKLOADS``, at its
  geometry, strain rate and target strain: microseconds per ``integrate`` step
  (the minimum of ``REPEATS`` runs of ``STEPS`` straining steps after a default
  equilibration, seed 0), and per realization at seeds 0 and 1 the neighbour
  builds, the wall time and the job CSV's sha256; in a fresh process per side
  and round, alternating.  ``md_summary`` compares the two sides.
- ``outputs``: ``analyze`` on every cell of the campaign workload's ensemble
  and ``sim run`` on each of its scenarios (seed 0): which files are
  byte-identical and the largest ``cloud.csv`` difference.
- ``n1000``: ``collect_observable``, ``classify_sample`` and
  ``bootstrap_cloud`` on three cells of the campaign ensemble written at
  1,000 jobs, the median of ``REPEATS`` calls.
- ``cna``: ``cna_labels`` on one checkpoint record's CNA shell of a 10^3 and
  a 16^3 crystal: the tracemalloc peak of one call and the median time of
  ``REPEATS`` untraced calls.

Each probe runs in a fresh process per side and round, sides alternating
first, for ``ROUNDS[probe]`` rounds.  Whole processes of the same code
disagree by more than the calls inside one, so ``n1000_summary`` and
``cna_summary`` give each side's median and interquartile range over its
rounds, and the change's relative difference in medians.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PAIRS = 10
REPEATS = 5
STEPS = 100
ROUNDS = {"md": 2, "n1000": 8, "cna": 8}
CELLS_N1000 = (("c_unk", 0.10), ("c_hcp", 0.20), ("sigma_top", 0.15))
CNA_GEOMETRIES = ((10, 10, 10), (16, 16, 16))


def _campaign(root: Path, work: Path, n_jobs: int):
    """The campaign workload, set up (seed 0) with an ensemble of ``n_jobs`` jobs."""
    sys.path.insert(0, str(root / "perfbench"))
    import workloads

    w = workloads.CampaignWorkload()
    w.n_jobs = n_jobs
    w.setup(0, work / f"inputs_n{n_jobs}")
    return w


# --- probes: run in a fresh process with one checkout's src/ on the path ----


def probe_n1000(root: Path, work: Path) -> dict:
    import time

    from gridsweep import stats, sweep

    ensemble = _campaign(root, work, 1000).ensemble

    def median_ms(fn):
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return round(1e3 * statistics.median(times), 2)

    out = {}
    for obs, strain in CELLS_N1000:
        v = sweep.collect_observable(ensemble, strain, obs)
        out[f"{obs}@{strain}"] = {
            "collect_observable_ms": median_ms(
                lambda: sweep.collect_observable(ensemble, strain, obs)),
            "classify_sample_ms": median_ms(lambda: sweep.classify_sample(v)),
            "bootstrap_cloud_ms": median_ms(lambda: stats.bootstrap_cloud(v, 1000)),
        }
    return out


def probe_cna(root: Path, work: Path) -> dict:
    import time
    import tracemalloc

    from gridsweep import md
    from gridsweep.cna import cna_labels

    out = {}
    for geometry in CNA_GEOMETRIES:
        # a checkpoint record's CNA shell, as md.run_tensile's record() takes it
        crystal = md.build_crystal(*geometry, temperature=0.05, seed=2)
        skin = md.neighbor_pairs(crystal.positions, crystal.box, crystal.periodic,
                                 md.CUTOFF + md.SKIN)
        i, j, _, r2 = md._cutoff_pairs(crystal, skin)
        shell = r2 < (0.854 * md.A0_DEFAULT) ** 2
        pairs = (i[shell], j[shell])
        tracemalloc.start()
        cna_labels(crystal.positions, pairs)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            cna_labels(crystal.positions, pairs)
            times.append(time.perf_counter() - t0)
        out["x".join(map(str, geometry))] = {
            "atoms": crystal.n_atoms, "traced_peak_mb": round(peak / 2**20, 2),
            "median_ms": round(1e3 * statistics.median(times), 2)}
    return out


def probe_md(root: Path, work: Path) -> dict:
    import time

    from gridsweep import md
    from gridsweep.sweep import write_records_csv

    sys.path.insert(0, str(root / "perfbench"))
    import workloads

    builds = []
    search = md.neighbor_pairs

    def counting_search(*args):
        builds.append(1)
        return search(*args)

    md.neighbor_pairs = counting_search
    out = {}
    for name, make in workloads.WORKLOADS.items():
        w = make()
        if not isinstance(w, workloads.SweepWorkload):
            continue
        params = md.MDParams(strain_rate=w.strain_rate, target_strain=w.target_strain)
        crystal = md.build_crystal(*w.geometry, temperature=params.temperature, seed=0)
        state = md.equilibrate(crystal, params)
        grip_speed = 0.5 * params.strain_rate * md.A0_DEFAULT
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            state = md.integrate(crystal, params, STEPS, grip_speed=grip_speed, state=state)
            times.append(time.perf_counter() - t0)
        row = {"geometry": list(w.geometry), "atoms": crystal.n_atoms,
               "us_per_step": round(1e6 * min(times) / STEPS, 1), "realizations": {}}
        for seed in (0, 1):
            builds.clear()
            t0 = time.perf_counter()
            records = md.run_tensile(params, w.geometry, seed=seed)
            wall = time.perf_counter() - t0
            path = work / f"{name}_job_{seed}.csv"
            write_records_csv(records, path)
            row["realizations"][seed] = {
                "neighbor_builds": len(builds), "wall_s": round(wall, 3),
                "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        out[name] = row
    return out


def probe_outputs(root: Path, work: Path) -> dict:
    from gridsweep.cli import main

    campaign = _campaign(root, work, 100)
    files, clouds = {}, {}
    for obs in campaign.observables:
        for strain in campaign.strains:
            out = work / f"analyze_{obs}_{strain}"
            if main(["analyze", "--input-dir", str(campaign.ensemble), "--strain", str(strain),
                     "--observable", obs, "--out-dir", str(out)]) != 0:
                raise SystemExit(f"analyze {obs}@{strain} failed")
            for p in sorted(out.iterdir()):
                files[f"{obs}@{strain}/{p.name}"] = hashlib.sha256(p.read_bytes()).hexdigest()
            lines = (out / "cloud.csv").read_text().splitlines()[1:]
            clouds[f"{obs}@{strain}"] = [[float(x) for x in line.split(",")] for line in lines]
    for name, path, *_ in campaign.scenarios:
        out = work / f"sim_{name}"
        if main(["sim", "run", "--scenario", str(path), "--out-dir", str(out)]) != 0:
            raise SystemExit(f"sim run {name} failed")
        for p in sorted(out.iterdir()):
            files[f"sim_{name}/{p.name}"] = hashlib.sha256(p.read_bytes()).hexdigest()
    return {"sha256": files, "clouds": clouds}


PROBES = {"cna": probe_cna, "md": probe_md, "n1000": probe_n1000, "outputs": probe_outputs}


def _probe(root: Path, name: str, work: Path) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    # in the checkout, where perfbench's workloads find the scenarios
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe", name, "--root", str(root),
         "--work", str(work)],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


# --- paired runs and comparisons ---------------------------------------


def _perfbench(root: Path, bench: dict, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        bench["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(bench["run_seconds"]), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if not proc.stdout:
        raise SystemExit(f"perfbench in {root} printed nothing:\n{proc.stderr}")
    last = json.loads(proc.stdout.splitlines()[-1])
    run = {m["name"]: last["metrics"][m["name"]]["value"] for m in bench["end_to_end"]}
    run.update(attempted=last["attempted"], failed=last["failed"], correct=last["correct"])
    return run


def _summary(pairs: list[dict], end_to_end: list[dict]) -> dict:
    out = {"pairs": len(pairs),
           "failed": {s: sum(p[s]["failed"] for p in pairs) for s in ("parent", "change")},
           "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in ("parent", "change")}}
    for metric in end_to_end:
        name = metric["name"]
        par = [p["parent"][name] for p in pairs]
        chg = [p["change"][name] for p in pairs]
        q1, _, q3 = statistics.quantiles(par, n=4)
        wins = sum((c < p) if metric["better"] == "lower" else (c > p)
                   for p, c in zip(par, chg))
        out[name] = {"parent_median": statistics.median(par),
                     "change_median": statistics.median(chg),
                     "relative_change": statistics.median(chg) / statistics.median(par) - 1.0,
                     "parent_iqr": q3 - q1, "change_wins": wins}
    return out


def _compare_md(rounds: dict) -> dict:
    """Per workload: each side's best microseconds per step over the rounds, and
    whether every job digest of every round is the same on both sides."""
    out, sides = {}, ("parent", "change")
    for name in rounds["parent"][0]:
        best = {s: min(r[name]["us_per_step"] for r in rounds[s]) for s in sides}
        digests = {s: {(k, v["sha256"]) for r in rounds[s]
                       for k, v in r[name]["realizations"].items()} for s in sides}
        out[name] = {"us_per_step": best,
                     "relative_change": best["change"] / best["parent"] - 1.0,
                     "neighbor_builds": {s: [v["neighbor_builds"] for v in
                                             rounds[s][0][name]["realizations"].values()]
                                         for s in sides},
                     "same_job_digests": digests["parent"] == digests["change"]}
    return out


def _spread(rounds: dict) -> dict:
    """Per cell and number: each side's median and interquartile range over
    its rounds, and the change's median relative to the parent's."""
    out = {}
    for cell, numbers in rounds["parent"][0].items():
        out[cell] = {}
        for key in numbers:
            row = {}
            for s in ("parent", "change"):
                values = [r[cell][key] for r in rounds[s]]
                q1, _, q3 = statistics.quantiles(values, n=4)
                row[s] = {"median": statistics.median(values), "iqr": round(q3 - q1, 3)}
            row["relative_change"] = row["change"]["median"] / row["parent"]["median"] - 1.0
            out[cell][key] = row
    return out


def _compare_outputs(parent: dict, change: dict) -> dict:
    files, clouds = parent["sha256"], parent["clouds"]
    if files.keys() != change["sha256"].keys():
        raise SystemExit("the two sides wrote different files")
    return {"files": len(files),
            "differing": sorted(f for f in files if files[f] != change["sha256"][f]),
            "cloud_files": len(clouds),
            "cloud_max_abs_diff": max(abs(a - b) for f in clouds
                                      for ra, rb in zip(clouds[f], change["clouds"][f])
                                      for a, b in zip(ra, rb))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path)
    p.add_argument("--change", type=Path)
    p.add_argument("--out", type=Path, help="BENCH_<label>.json")
    p.add_argument("--first-seed", type=int, help="first of the pairs' seeds, unused before")
    p.add_argument("--probe", choices=sorted(PROBES), help=argparse.SUPPRESS)
    p.add_argument("--root", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.probe:
        print(json.dumps(PROBES[args.probe](args.root.resolve(), args.work)))
        return 0
    if not (args.parent and args.change and args.out and args.first_seed is not None):
        p.error("--parent, --change, --out and --first-seed are required")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())

    import numpy
    import scipy

    record = {
        "label": args.out.stem.removeprefix("BENCH_"),
        "command": " ".join(bench["command"]) + " --workload W --seed N "
                   f"--seconds {bench['run_seconds']} --trace 0",
        "order": "pairs alternate which side runs first (odd seeds: parent first); "
                 "all runs sequential on one shared host",
        "machine": {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                    "processor": platform.processor() or platform.machine()},
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        outputs = {s: _probe(root, "outputs", work / s / "outputs") for s, root in sides.items()}
        record["outputs"] = _compare_outputs(outputs["parent"], outputs["change"])
        for name, rounds in ROUNDS.items():
            record[name] = {"rounds": rounds, "parent": [], "change": []}
            for r in range(rounds):
                for s in (("parent", "change"), ("change", "parent"))[r % 2]:
                    record[name][s].append(_probe(sides[s], name, work / s))
        record["md_summary"] = _compare_md(record["md"])
        record["n1000_summary"] = _spread(record["n1000"])
        record["cna_summary"] = _spread(record["cna"])

    record["pairs"], record["summary"] = [], {}
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = []
        for seed in range(args.first_seed, args.first_seed + PAIRS):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for s in order:
                pair[s] = _perfbench(sides[s], bench, workload, seed)
                print(f"{workload} seed {seed} {s}: {pair[s]}", file=sys.stderr)
            pairs.append(pair)
        record["pairs"] += pairs
        record["summary"][workload] = _summary(pairs, bench["end_to_end"])
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
