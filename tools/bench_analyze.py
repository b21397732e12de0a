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
  geometry, strain rate and target strain: microseconds per gripped
  ``integrate`` step (the minimum of ``REPEATS`` runs of ``STEPS`` straining
  steps, seed 0, after a default equilibration), the minor page faults per
  step (``ru_minflt``) and the tracemalloc peak of one force evaluation; per
  realization at seeds 0 and 1 the neighbour builds, the wall time and the
  job CSV's sha256.  ``md_summary`` gives each side's median and
  interquartile range of the step over its rounds.
- ``paper``: for each paper-scale crystal of ``PAPER_GEOMETRIES`` at the
  default strain rate, in a fresh process of its own: milliseconds per step
  as in ``md`` but after the first list build, the minor page faults per
  step, the force evaluation's traced peak and the process's ``ru_maxrss``.
  ``paper_summary`` gives each side's median and interquartile range over its
  rounds.
- ``pair_block``: the same for the 16^3 crystal once per size of
  ``PAIR_BLOCKS``, on the change alone: the measurement behind
  ``md._PAIR_BLOCK``.
- ``block``: for each neighbour-build block size of ``BLOCKS``, in a fresh
  process per side and size: one realization of each sweep workload (seed 0)
  with its wall time, minor page faults and the process's ``ru_maxrss`` after
  it, then per crystal of ``BLOCK_GEOMETRIES`` one ``neighbor_pairs`` build at
  the skin radius: its best time of ``REPEATS``, its minor page faults and
  its tracemalloc peak.  This is the measurement behind ``md._BLOCK``.
- ``outputs``: ``analyze`` on every cell of the campaign workload's ensemble
  and ``sim run`` on each of its scenarios (seed 0): which files are
  byte-identical and the largest ``cloud.csv`` difference.
- ``n1000``: ``collect_observable``, ``classify_sample`` and
  ``bootstrap_cloud`` on three cells of the campaign ensemble written at
  1,000 jobs, the median of ``REPEATS`` calls.
- ``cold``: ``analyze`` on the campaign ensemble's ``COLD_CELL``, in an
  interpreter of its own: its wall time from spawn to exit, its
  ``ru_maxrss`` and whether it loaded ``scipy.special``.
- ``sim``: ``sim run`` on each scenario of the campaign workload (seed 0),
  in process, and ``gridsim._Sim`` built on the ``registered`` scenario's
  fleet: the median time of ``REPEATS`` calls each.
- ``cna``: ``cna_labels`` on one checkpoint record's CNA shell of each crystal
  of ``CNA_GEOMETRIES``, at each ``cna.CNA_BLOCK`` of ``CNA_BLOCKS``: the
  tracemalloc peak of one call and the median time of ``REPEATS`` untraced
  calls.

``--probes`` names the parts to take (default: all), as a comma-separated
list of ``outputs``, ``pairs``, the probes of ``ROUNDS``, ``block`` and
``pair_block``.

Each probe runs in a fresh process per side and round, sides alternating
first, for ``ROUNDS[probe]`` rounds.  Whole processes of the same code
disagree by more than the calls inside one: two rounds of the same ``md``
code once read 1,861 and 1,272 us per 6x8x6 step.  So every summary gives
each side's median and interquartile range over its rounds, and the change's
relative difference in medians.
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
ROUNDS = {"md": 8, "paper": 8, "n1000": 8, "cna": 8, "cold": 8, "sim": 8}
CELLS_N1000 = (("c_unk", 0.10), ("c_hcp", 0.20), ("sigma_top", 0.15))
COLD_CELL = ("sigma_top", 0.15)  # fits and KS-tests both families
CNA_GEOMETRIES = ((6, 8, 6), (10, 10, 10), (16, 16, 16))
CNA_BLOCKS = (128, 512)
PAPER_GEOMETRIES = ("10x10x10", "16x16x16")
PAIR_BLOCKS = (2**13, 2**14, 2**15, 2**16)
BLOCKS = (2**13, 2**14, 2**15, 2**16, 2**17)
BLOCK_GEOMETRIES = ((4, 6, 4), (6, 8, 6), (10, 10, 10), (16, 16, 16))


def _campaign(root: Path, work: Path, n_jobs: int):
    """The campaign workload, set up (seed 0) with an ensemble of ``n_jobs`` jobs."""
    sys.path.insert(0, str(root / "perfbench"))
    import workloads

    w = workloads.CampaignWorkload()
    w.n_jobs = n_jobs
    w.setup(0, work / f"inputs_n{n_jobs}")
    return w


# --- probes: run in a fresh process with one checkout's src/ on the path ----


def _median_ms(fn) -> float:
    """The median time of ``REPEATS`` calls of ``fn``, in milliseconds."""
    import time

    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return round(1e3 * statistics.median(times), 2)


def probe_n1000(root: Path, work: Path) -> dict:
    from gridsweep import stats, sweep

    ensemble = _campaign(root, work, 1000).ensemble

    out = {}
    for obs, strain in CELLS_N1000:
        v = sweep.collect_observable(ensemble, strain, obs)
        out[f"{obs}@{strain}"] = {
            "collect_observable_ms": _median_ms(
                lambda: sweep.collect_observable(ensemble, strain, obs)),
            "classify_sample_ms": _median_ms(lambda: sweep.classify_sample(v)),
            "bootstrap_cloud_ms": _median_ms(lambda: stats.bootstrap_cloud(v, 1000)),
        }
    return out


#: the CLI's analyze in a fresh interpreter, then its max RSS and whether it
#: loaded scipy.special, as JSON
COLD_ANALYZE = """
import json, resource, sys
from gridsweep.cli import main
if main(sys.argv[1:]) != 0:
    sys.exit("analyze failed")
rss_mb = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
print(json.dumps({"max_rss_mb": rss_mb, "scipy_special": "scipy.special" in sys.modules}))
"""


def probe_cold(root: Path, work: Path) -> dict:
    import time

    ensemble = _campaign(root, work, 100).ensemble
    obs, strain = COLD_CELL
    argv = ["analyze", "--input-dir", str(ensemble), "--strain", str(strain),
            "--observable", obs, "--out-dir", str(work / "cold")]
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", COLD_ANALYZE, *argv],
                         check=True, capture_output=True, text=True).stdout
    wall = time.perf_counter() - t0
    return {f"{obs}@{strain}": {"wall_s": round(wall, 3), **json.loads(out.splitlines()[-1])}}


def probe_sim(root: Path, work: Path) -> dict:
    from gridsweep import gridsim
    from gridsweep.cli import main
    from gridsweep.scenario import parse_scenario

    out = {}
    for name, path, *_ in _campaign(root, work, 1).scenarios:
        argv = ["sim", "run", "--scenario", str(path), "--out-dir", str(work / f"sim_{name}")]
        out[name] = {"sim_run_ms": _median_ms(lambda: main(argv))}
        if name == "registered":
            scn = parse_scenario(path)
            out[name]["sim_setup_ms"] = _median_ms(
                lambda: gridsim._Sim(scn.tasks, scn.population, scn.seed))
    return out


def probe_cna(root: Path, work: Path) -> dict:
    import time
    import tracemalloc

    from gridsweep import cna, md
    from gridsweep.cna import cna_labels

    # checkouts that predate md.CNA_CUTOFF wrote the same value inline
    cna_cutoff = getattr(md, "CNA_CUTOFF", 0.854 * md.A0_DEFAULT)
    out = {}
    for geometry in CNA_GEOMETRIES:
        # a checkpoint record's CNA shell: the skin list's pairs within
        # CNA_CUTOFF, the same sorted pairs as a search at that radius lists
        crystal = md.build_crystal(*geometry, temperature=0.05, seed=2)
        pairs = md.neighbor_pairs(crystal.positions, crystal.box, crystal.periodic, cna_cutoff)
        for block in CNA_BLOCKS:
            cna.CNA_BLOCK = block
            tracemalloc.start()
            cna_labels(crystal.positions, pairs)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                cna_labels(crystal.positions, pairs)
                times.append(time.perf_counter() - t0)
            out["x".join(map(str, geometry)) + f"@{block}"] = {
                "atoms": crystal.n_atoms, "traced_peak_mb": round(peak / 2**20, 2),
                "median_ms": round(1e3 * statistics.median(times), 2)}
    return out


def _minor_faults() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _sweep_workloads(root: Path) -> dict:
    """The sweep workloads of the checkout's perfbench, by name."""
    sys.path.insert(0, str(root / "perfbench"))
    import workloads

    made = {name: make() for name, make in workloads.WORKLOADS.items()}
    return {name: w for name, w in made.items() if isinstance(w, workloads.SweepWorkload)}


def _step_row(crystal, params, state) -> dict:
    """The best of REPEATS runs of STEPS gripped steps of ``crystal`` from
    ``state``, their minor faults, and one force evaluation's traced peak."""
    import time
    import tracemalloc

    from gridsweep import md

    grip_speed = 0.5 * params.strain_rate * md.A0_DEFAULT
    times, faults = [], _minor_faults()
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        state = md.integrate(crystal, params, STEPS, grip_speed=grip_speed, state=state)
        times.append(time.perf_counter() - t0)
    faults = _minor_faults() - faults
    # checkouts before the force list's workspace took no third argument
    workspace = [state.work] if "work" in md.PairState._fields else []
    tracemalloc.start()
    md._forces(crystal, (state.fi, state.fj), *workspace)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"atoms": crystal.n_atoms, "force_pairs": int(state.fi.size),
            "us_per_step": round(1e6 * min(times) / STEPS, 1),
            "minor_faults_per_step": round(faults / (REPEATS * STEPS), 1),
            "force_traced_peak_mb": round(peak / 2**20, 2)}


def probe_paper(root: Path, work: Path, cell: str) -> dict:
    """``cell`` is NXxNYxNZ, or NXxNYxNZ@PAIR_BLOCK to set ``md._PAIR_BLOCK``."""
    import resource

    from gridsweep import md

    geometry, _, block = cell.partition("@")
    if block:
        md._PAIR_BLOCK = int(block)
    params = md.MDParams()
    crystal = md.build_crystal(*map(int, geometry.split("x")), temperature=params.temperature,
                               seed=0)
    state = md.integrate(crystal, params, 0)  # the list and first forces, untimed
    row = _step_row(crystal, params, state)
    row["ms_per_step"] = round(row.pop("us_per_step") / 1e3, 3)
    row["max_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return {cell: row}


def probe_md(root: Path, work: Path) -> dict:
    import time

    from gridsweep import md
    from gridsweep.sweep import write_records_csv

    builds = []
    search = md.neighbor_pairs

    def counting_search(*args):
        builds.append(1)
        return search(*args)

    md.neighbor_pairs = counting_search
    out = {}
    for name, w in _sweep_workloads(root).items():
        params = md.MDParams(strain_rate=w.strain_rate, target_strain=w.target_strain)
        crystal = md.build_crystal(*w.geometry, temperature=params.temperature, seed=0)
        row = _step_row(crystal, params, md.equilibrate(crystal, params))
        row["geometry"], row["realizations"] = list(w.geometry), {}
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


def probe_block(root: Path, work: Path, block: str) -> dict:
    import resource
    import time
    import tracemalloc

    from gridsweep import md

    md._BLOCK = int(block)
    out = {"realizations": {}, "builds": {}}
    for name, w in _sweep_workloads(root).items():
        params = md.MDParams(strain_rate=w.strain_rate, target_strain=w.target_strain)
        t0, faults = time.perf_counter(), _minor_faults()
        md.run_tensile(params, w.geometry, seed=0)
        out["realizations"][name] = {
            "wall_s": round(time.perf_counter() - t0, 3),
            "minor_faults": _minor_faults() - faults,
            "max_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}
    for geometry in BLOCK_GEOMETRIES:
        crystal = md.build_crystal(*geometry, temperature=0.05, seed=2)
        args = (crystal.positions, crystal.box, crystal.periodic, md.CUTOFF + md.SKIN)
        md.neighbor_pairs(*args)
        times, faults = [], _minor_faults()
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            md.neighbor_pairs(*args)
            times.append(time.perf_counter() - t0)
        faults = _minor_faults() - faults
        tracemalloc.start()
        md.neighbor_pairs(*args)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out["builds"]["x".join(map(str, geometry))] = {
            "atoms": crystal.n_atoms, "ms": round(1e3 * min(times), 2),
            "minor_faults": round(faults / REPEATS, 1), "traced_peak_mb": round(peak / 2**20, 2)}
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


PROBES = {"block": probe_block, "cna": probe_cna, "cold": probe_cold, "md": probe_md,
          "n1000": probe_n1000, "outputs": probe_outputs, "paper": probe_paper,
          "sim": probe_sim}
#: the parts of the record --probes can name
PARTS = ("outputs", "pairs", *ROUNDS, "block", "pair_block")
#: the probes that run one fresh process per argument, and their arguments
PROBE_ARGS = {"paper": PAPER_GEOMETRIES}


def _probe(root: Path, name: str, work: Path, *args: str) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    # in the checkout, where perfbench's workloads find the scenarios
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe", name, "--root", str(root),
         "--work", str(work), *args],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _round(root: Path, name: str, work: Path) -> dict:
    """One round of probe ``name`` in ``root``: one process, or one per
    argument of ``PROBE_ARGS[name]`` with their cells merged."""
    out = {}
    for arg in PROBE_ARGS.get(name, (None,)):
        out.update(_probe(root, name, work, *(() if arg is None else ("--arg", arg))))
    return out


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
    """Per workload: `_spread` of its step over the rounds, the neighbour
    builds, and whether every job digest of every round is the same on both
    sides."""
    out, sides = {}, ("parent", "change")
    steps = {s: [{name: {k: v for k, v in row.items() if k != "realizations"}
                  for name, row in r.items()} for r in rounds[s]] for s in sides}
    for name, row in _spread(steps).items():
        digests = {s: {(k, v["sha256"]) for r in rounds[s]
                       for k, v in r[name]["realizations"].items()} for s in sides}
        row["neighbor_builds"] = {s: [v["neighbor_builds"] for v in
                                      rounds[s][0][name]["realizations"].values()]
                                  for s in sides}
        row["same_job_digests"] = digests["parent"] == digests["change"]
        out[name] = row
    return out


def _spread(rounds: dict) -> dict:
    """Per cell and number: each side's median and interquartile range over
    its rounds, and the change's median relative to the parent's."""
    out = {}
    for cell, numbers in rounds["parent"][0].items():
        out[cell] = {}
        for key, value in numbers.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            row = {}
            for s in ("parent", "change"):
                values = [r[cell][key] for r in rounds[s]]
                q1, _, q3 = statistics.quantiles(values, n=4)
                row[s] = {"median": statistics.median(values), "iqr": round(q3 - q1, 3)}
            parent = row["parent"]["median"]
            row["relative_change"] = row["change"]["median"] / parent - 1.0 if parent else None
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
    p.add_argument("--probes", default=",".join(PARTS),
                   help="comma-separated parts to take (default: all of %(default)s)")
    p.add_argument("--probe", choices=sorted(PROBES), help=argparse.SUPPRESS)
    p.add_argument("--root", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--arg", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.probe:
        extra = () if args.arg is None else (args.arg,)
        print(json.dumps(PROBES[args.probe](args.root.resolve(), args.work, *extra)))
        return 0
    if not (args.parent and args.change and args.out and args.first_seed is not None):
        p.error("--parent, --change, --out and --first-seed are required")
    parts = args.probes.split(",")
    if set(parts) - set(PARTS):
        p.error(f"--probes takes parts of {','.join(PARTS)}")
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
    record["probes"] = parts
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if "outputs" in parts:
            outputs = {s: _probe(root, "outputs", work / s / "outputs")
                       for s, root in sides.items()}
            record["outputs"] = _compare_outputs(outputs["parent"], outputs["change"])
        for name, rounds in ROUNDS.items():
            if name not in parts:
                continue
            record[name] = {"rounds": rounds, "parent": [], "change": []}
            for r in range(rounds):
                for s in (("parent", "change"), ("change", "parent"))[r % 2]:
                    record[name][s].append(_round(sides[s], name, work / s))
            if name == "md":
                record["md_summary"] = _compare_md(record["md"])
            else:
                record[f"{name}_summary"] = _spread(record[name])
        if "block" in parts:
            record["block"] = {s: {block: _probe(root, "block", work / s, "--arg", str(block))
                                   for block in BLOCKS} for s, root in sides.items()}
        if "pair_block" in parts:
            record["pair_block"] = {
                block: _probe(sides["change"], "paper", work / "change", "--arg",
                              f"16x16x16@{block}")["16x16x16@" + str(block)]
                for block in PAIR_BLOCKS}

    record["pairs"], record["summary"] = [], {}
    workloads = [w["name"] for w in bench["workloads"]] if "pairs" in parts else []
    for workload in workloads:
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
