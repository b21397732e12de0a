"""One benchmark workload in its own process: set up, run closed-loop rounds, check.

run.py starts this script once per set-up sample and once for the measured
run; it is not meant to be called by hand::

    python3 perfbench/workloads.py --workload ensemble --seed 0 --seconds 25 \
        --trace 0 --work DIR --result FILE [--setup-only]

A round is one fixed unit of user work, identical every time it repeats, so
its outputs must be byte-identical from round to round.  Rounds repeat until
``--seconds`` have passed (the last round may overrun).  Every program call
goes through ``gridsweep.cli.main``, in this process, as a user would make it;
the figures come from timing those calls and reading the files they write.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
VERDICTS = {"normal", "weibull", "indistinguishable", "degenerate"}
# exact per-round counts that must repeat between runs at the same seed
DETERMINISM_COUNTS = ("md.steps", "cna.cna_labels.calls", "gridsim.events",
                      "gridsim.dispatches", "stats.fit_weibull.calls")


@dataclass
class Round:
    op_s: list[float] = field(default_factory=list)  # per-operation wall times
    units: int = 0  # completed realizations, or simulated trace events
    unit_wall_s: float = 0.0  # wall time of the calls that produced the units
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    busy_ratio: float = 0.0  # sweep only: sum of job walls / (wall * parallelism)


def _timed_cli(argv) -> tuple[int, float]:
    """Call the CLI in-process; an uncaught exception counts as exit 1, as it would
    for the ``gridsweep`` command."""
    from gridsweep import cli

    t0 = time.perf_counter()
    try:
        rc = cli.main([str(a) for a in argv])
    except Exception:
        traceback.print_exc()
        rc = 1
    return rc, time.perf_counter() - t0


def _read_csv(path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def _digest(out: Path, paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class SweepWorkload:
    """``sweep run`` rounds of one tensile crystal size; the MD + CNA path."""

    op_name, rate_name = "realization_s_p50", "realizations_per_s"

    def __init__(self, geometry, target_strain, n_realizations, max_parallelism):
        self.geometry = geometry
        self.target_strain = target_strain
        self.n_realizations = n_realizations
        self.parallelism = min(max_parallelism, len(os.sched_getaffinity(0)))
        self.strain_rate = 0.1
        self.dstrain = 0.01  # MDParams default checkpoint spacing
        self.n_checkpoints = round(target_strain / self.dstrain) + 1

    def setup(self, seed: int, inputs: Path) -> dict:
        from gridsweep import md

        self.seed = seed
        p = md.MDParams()
        crystal = md.build_crystal(*self.geometry)
        l0 = md.grip_separation(crystal)
        strain_steps = round(self.target_strain * l0 / (self.strain_rate * md.A0_DEFAULT * p.dt))
        return {"atoms": crystal.n_atoms, "geometry": list(self.geometry),
                "steps_nominal": p.equilibration_steps + strain_steps,
                "checkpoints": self.n_checkpoints, "realizations_per_round": self.n_realizations,
                "parallelism": self.parallelism}

    def run_round(self, out: Path) -> Round:
        nx, ny, nz = self.geometry
        rc, wall = _timed_cli(
            ["sweep", "run", "--out-dir", out, "--nx", nx, "--ny", ny, "--nz", nz,
             "--strain-rate", self.strain_rate, "--target-strain", self.target_strain,
             "--n-realizations", self.n_realizations, "--base-seed", self.seed,
             "--parallelism", self.parallelism])
        r = Round(attempted=self.n_realizations, unit_wall_s=wall)
        if rc != 0:
            r.problems.append(f"sweep run exited {rc}")
        bad = set(range(self.n_realizations)) if rc != 0 else set()
        ledger = []
        try:
            _, ledger = _read_csv(out / "ledger.csv")
            _, summary = _read_csv(out / "ledger_summary.csv")
            if int(summary[0]["n_ok"]) != self.n_realizations:
                r.problems.append(
                    f"ledger n_ok {summary[0]['n_ok']} != {self.n_realizations} jobs run")
        except (OSError, LookupError, ValueError) as exc:
            r.problems.append(f"ledger unreadable: {exc!r}")
        if [row["job_id"] for row in ledger] != [str(i) for i in range(self.n_realizations)]:
            r.problems.append("ledger job ids do not match the jobs run")
        for row in ledger:
            if row["status"] == "ok":
                r.op_s.append(float(row["wall_time_s"]))
            else:
                bad.add(int(row["job_id"]))
                r.problems.append(f"job {row['job_id']} status {row['status']}")
        for i in range(self.n_realizations):
            problem = self._check_job_csv(out / f"job_{i:04d}.csv")
            if problem:
                bad.add(i)
                r.problems.append(f"job {i}: {problem}")
        r.failed = len(bad)
        r.units = self.n_realizations - r.failed
        r.busy_ratio = sum(r.op_s) / (wall * self.parallelism)
        # wall times are the only non-deterministic outputs; leave them out
        stable = "\n".join(f"{row['job_id']},{row['seed']},{row['status']}" for row in ledger)
        r.digest = hashlib.sha256(
            (_digest(out, sorted(out.glob("job_*.csv"))) + stable).encode()).hexdigest()
        return r

    def _check_job_csv(self, path: Path) -> str:
        try:
            header, rows = _read_csv(path)
            values = [[float(row[k]) for k in header] for row in rows]
        except (OSError, ValueError, TypeError) as exc:
            return f"unreadable: {exc!r}"
        if header != ["strain", "c_fcc", "c_hcp", "c_unk", "sigma_top", "energy"]:
            return f"bad header {header}"
        if len(values) != self.n_checkpoints:
            return f"{len(values)} checkpoints, expected {self.n_checkpoints}"
        for k, (strain, fcc, hcp, unk, *_rest) in enumerate(values):
            if abs(strain - k * self.dstrain) > 1e-9:
                return f"checkpoint {k} at strain {strain}"
            if not all(math.isfinite(v) for v in values[k]):
                return f"non-finite value at strain {strain}"
            if abs(fcc + hcp + unk - 1.0) > 1e-9:
                return f"c_fcc + c_hcp + c_unk = {fcc + hcp + unk} at strain {strain}"
        return ""


class CampaignWorkload:
    """``sim run`` on three scenarios, then ``analyze`` across observables and strains."""

    op_name, rate_name = "analyze_s_p50", "sim_events_per_s"
    observables = ("c_hcp", "c_unk", "sigma_top")
    strains = (0.05, 0.10, 0.15, 0.20)
    n_jobs = 100  # ensemble size of the synthetic analyze input
    free_atoms = 192  # non-grip atoms of the default 4x6x4 crystal

    def setup(self, seed: int, inputs: Path) -> dict:
        import numpy as np

        inputs.mkdir(parents=True, exist_ok=True)
        table2 = ROOT / "scenarios" / "table2.scenario"
        base = configparser.ConfigParser()
        base.read(table2)
        tasks = {base[s]["name"]: int(base[s]["n_jobs"])
                 for s in base.sections() if s.startswith("task")}
        # (name, path, preset, job multiplier, expected TOTAL speedup)
        self.scenarios = [("table2", table2, "pool", 1, 50.9)]
        for name, preset, mult in (("pool_x10", "pool", 10), ("registered", "registered", 1)):
            cp = configparser.ConfigParser()
            cp.read(table2)
            cp["hosts"] = {"preset": preset, "seed": str(seed)}
            cp["sim"] = {"seed": str(seed)}
            for sec in cp.sections():
                if sec.startswith("task"):
                    cp[sec]["n_jobs"] = str(int(cp[sec]["n_jobs"]) * mult)
            path = inputs / f"{name}.scenario"
            with open(path, "w") as fh:
                cp.write(fh)
            self.scenarios.append((name, path, preset, mult, None))
        self.tasks = tasks
        self.ensemble = inputs / "ensemble"
        self._write_ensemble(np.random.default_rng(seed))
        return {"ensemble_n": self.n_jobs, "checkpoints": 21,
                "analyze_calls_per_round": len(self.observables) * len(self.strains),
                "scenarios": {name: {"hosts": preset, "jobs": sum(tasks.values()) * mult}
                              for name, _, preset, mult, _ in self.scenarios}}

    def _write_ensemble(self, rng) -> None:
        """Synthetic job CSVs in the documented format: defect counts over the
        free atoms grow past a per-job yield strain, stress rises then softens."""
        self.ensemble.mkdir(parents=True, exist_ok=True)
        strains = [k * 0.01 for k in range(21)]
        n = self.free_atoms
        for job in range(self.n_jobs):
            yield_strain = rng.normal(0.09, 0.01)
            stiffness = rng.normal(14.0, 0.7)
            rows = []
            for e in strains:
                plastic = max(0.0, e - yield_strain)
                unk = 1 + int(rng.binomial(n - 2, min(0.9, 0.02 + 2.0 * plastic)))
                hcp = 1 + int(rng.binomial(n - 1 - unk, min(0.9, 0.005 + 1.5 * plastic)))
                sigma = stiffness * min(e, yield_strain) - 5.0 * plastic + rng.normal(0.0, 0.02)
                energy = -2280.0 + 900.0 * e * e + rng.normal(0.0, 0.5)
                rows.append([e, (n - unk - hcp) / n, hcp / n, unk / n, sigma, energy])
            with open(self.ensemble / f"job_{job:04d}.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["strain", "c_fcc", "c_hcp", "c_unk", "sigma_top", "energy"])
                w.writerows([repr(float(x)) for x in row] for row in rows)

    def run_round(self, out: Path) -> Round:
        r = Round()
        for name, path, _, mult, expect_total in self.scenarios:
            sim_out = out / f"sim_{name}"
            rc, wall = _timed_cli(["sim", "run", "--scenario", path, "--out-dir", sim_out])
            r.attempted += 1
            events, problem = self._check_sim(sim_out, mult, expect_total) if rc == 0 else (
                0, f"exited {rc}")
            if problem:
                r.failed += 1
                r.problems.append(f"sim run {name}: {problem}")
            r.units += events
            r.unit_wall_s += wall
        for obs in self.observables:
            for strain in self.strains:
                a_out = out / f"analyze_{obs}_{strain}"
                rc, wall = _timed_cli(["analyze", "--input-dir", self.ensemble, "--strain",
                                       strain, "--observable", obs, "--out-dir", a_out])
                r.attempted += 1
                r.op_s.append(wall)
                problem = self._check_verdict(a_out, obs, strain) if rc == 0 else f"exited {rc}"
                if problem:
                    r.failed += 1
                    r.problems.append(f"analyze {obs}@{strain}: {problem}")
        r.digest = _digest(out, sorted(p for p in out.rglob("*") if p.is_file()))
        return r

    def _check_sim(self, out: Path, mult: int, expect_total) -> tuple[int, str]:
        try:
            _, trace = _read_csv(out / "trace.csv")
            _, speedup = _read_csv(out / "speedup.csv")
            done = Counter(row["task"] for row in trace if row["kind"] == "complete")
            last = speedup[-1]
            total = float(last["speedup"])
        except (OSError, LookupError, ValueError, TypeError) as exc:
            return 0, f"outputs unreadable: {exc!r}"
        for task, n_jobs in self.tasks.items():
            if done[task] != n_jobs * mult:
                return len(trace), f"task {task} completed {done[task]} of {n_jobs * mult} jobs"
        if last["task"] != "TOTAL":
            return len(trace), "speedup.csv does not end with the TOTAL row"
        if expect_total is not None and round(total, 1) != expect_total:
            return len(trace), f"TOTAL speedup {total}, expected {expect_total}"
        return len(trace), ""

    @staticmethod
    def _check_verdict(out: Path, obs: str, strain: float) -> str:
        try:
            _, rows = _read_csv(out / "verdict.csv")
            row = rows[0]
            matches = (row["observable"] == obs and float(row["strain"]) == strain
                       and int(row["n"]) >= 2)
        except (OSError, LookupError, ValueError, TypeError) as exc:
            return f"verdict.csv unreadable: {exc!r}"
        if row["verdict"] not in VERDICTS:
            return f"verdict {row['verdict']!r} not in {sorted(VERDICTS)}"
        if not matches:
            return f"verdict row {row} does not match the call"
        return ""


WORKLOADS = {
    # Tier-1 sweep traffic: default crystal, both pool workers pulling jobs.
    "ensemble": lambda: SweepWorkload((4, 6, 4), 0.20, 6, max_parallelism=2),
    # 3x the default atoms (1,152), one realization at a time: dense O(n^2) passes.
    "big_slab": lambda: SweepWorkload((6, 8, 6), 0.01, 1, max_parallelism=1),
    # grid simulator, host sampling, scenarios and the statistics chain.
    "campaign": CampaignWorkload,
}


def run_rounds(workload, seconds: float, work: Path, tracer=None):
    """Closed loop: the next round starts when the previous one has finished."""
    rounds, counts = [], []
    seen = Counter()
    t_end = time.perf_counter() + seconds
    k = 0
    while True:
        out = work / f"round-{k}"
        rounds.append(workload.run_round(out))
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            total = tracer.collect()[1]
            counts.append({name: total[name] - seen[name] for name in total})
            seen = total
        k += 1
        if time.perf_counter() >= t_end:
            return rounds, counts


def summarize(rounds) -> dict:
    op_s = [t for r in rounds for t in r.op_s]
    return {
        "op_s_p50": statistics.median(op_s) if op_s else 0.0,  # 0 only when every op failed
        "op_samples": len(op_s),
        "throughput_per_s": sum(r.units for r in rounds) / sum(r.unit_wall_s for r in rounds),
        "rounds": len(rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "problems": [p for r in rounds for p in r.problems],
        "digests": sorted({r.digest for r in rounds}),
    }


def layer_metrics(groups, counts: dict, rounds, traced: dict, untraced: dict) -> dict:
    """Per-layer figures per round of the traced pass; counts are exact per round."""
    from tracing import LAYERS, span_times

    inc, self_time = span_times(groups)
    n = len(rounds)

    def s(*names):
        return sum(inc[name] for name in names) / n

    def ratio(a, b):
        return a / b if b else 0.0

    c = Counter(counts)
    m = {
        "md.equilibrate_s": (s("md.equilibrate"), "s"),
        "md.integrate_s": (s("md.integrate"), "s"),
        "md.steps": (c["md.steps"], "count"),
        "md.us_per_atom_step": (ratio(1e6 * s("md.integrate"), c["md.atom_steps"]), "us"),
        "md.grip_stress_s": (s("md.grip_stress"), "s"),
        "md.total_energy_s": (s("md.total_energy"), "s"),
        "cna.cna_labels_s": (s("cna.cna_labels"), "s"),
        "cna.calls": (c["cna.cna_labels.calls"], "count"),
        "cna.us_per_atom": (ratio(1e6 * s("cna.cna_labels"), c["cna.atoms"]), "us"),
        "sweep.write_records_csv_s": (s("sweep.write_records_csv"), "s"),
        "sweep.worker_busy_ratio": (statistics.fmean(r.busy_ratio for r in rounds), "ratio"),
        "sweep.collect_observable_s": (s("sweep.collect_observable"), "s"),
        "sweep.classify_sample_s": (s("sweep.classify_sample"), "s"),
        "stats.ks_bootstrap_s": (s("stats.ks_test[parametric_bootstrap]"), "s"),
        "stats.ks_asymptotic_s": (s("stats.ks_test[asymptotic]"), "s"),
        "stats.fit_weibull_s": (s("stats.fit_weibull"), "s"),
        "stats.fit_weibull.calls": (c["stats.fit_weibull.calls"], "count"),
        "stats.bootstrap_cloud_s": (s("stats.bootstrap_cloud"), "s"),
        "stats.qq_points_s": (s("stats.qq_points"), "s"),
        "gridsim.run_scenario_s": (s("gridsim.run_scenario"), "s"),
        "gridsim.events": (c["gridsim.events"], "count"),
        "gridsim.dispatches": (c["gridsim.dispatches"], "count"),
        "gridsim.useful_dispatch_ratio": (
            ratio(c["gridsim.completions"], c["gridsim.dispatches"]), "ratio"),
        "gridsim.write_csv_s": (
            s("gridsim.write_trace_csv", "gridsim.write_speedup_csv",
              "gridsim.write_regimes_csv"), "s"),
        "gridsim.segment_regimes_s": (s("gridsim.segment_regimes"), "s"),
        "scenario.parse_scenario_s": (s("scenario.parse_scenario"), "s"),
        "hosts.sample_hosts_s": (s("hosts.sample_hosts"), "s"),
        "hosts.n_hosts": (c["hosts.n_hosts"], "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_time[layer] / n, "s")
    m["trace.spans"] = (sum(1 for g in groups for sp in g if sp is not None) / n, "count")
    overhead = traced["op_s_p50"] - untraced["op_s_p50"]
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_ratio"] = (ratio(overhead, untraced["op_s_p50"]), "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    from gridsweep import cli  # noqa: F401  (imports are part of set-up)

    args.work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    sizes = workload.setup(args.seed, args.work / "inputs")
    result = {"t_ready": time.monotonic(), "sizes": sizes,
              "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if not args.setup_only:
        rounds, _ = run_rounds(workload, args.seconds, args.work)
        result["untraced"] = summarize(rounds)
        if args.trace:
            from tracing import Tracer, write_spans_csv

            tracer = Tracer(args.work / "spans")
            tracer.install()
            t_rounds, counts = run_rounds(workload, args.seconds, args.work, tracer)
            result["traced"] = summarize(t_rounds)
            per_round = [{k: c.get(k, 0) for k in DETERMINISM_COUNTS} for c in counts]
            if any(c != per_round[0] for c in per_round):
                result["traced"]["problems"].append(f"counts differ between rounds: {per_round}")
            result["counts"] = per_round[0]
            groups = tracer.collect()[0]
            write_spans_csv(groups, args.work / "spans.csv.gz")
            result["layers"] = layer_metrics(groups, counts[0], t_rounds,
                                             result["traced"], result["untraced"])
        usage = [resource.getrusage(who).ru_maxrss for who in
                 (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        result["peak_rss_mb"] = max(usage) / 1024.0  # ru_maxrss is in KiB on Linux
        result["op_name"], result["rate_name"] = workload.op_name, workload.rate_name
    tmp = args.result.with_suffix(".tmp")
    tmp.write_text(json.dumps(result))
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
