"""Local worker-pool sweep runner and ensemble analysis.

A sweep runs many tensile MD realizations (identical conditions, different
velocity seeds) through a bounded process pool, writes one defect-record
CSV per job, and accounts wall-clock speedup the same way the grid
simulator does: estimated sequential time over sweep makespan.

The analysis side pools one observable at one strain checkpoint across all
job files and runs the full statistics chain: normal and Weibull fits, KS
tests in both p-value modes, moment summary, bootstrap cloud, QQ points,
and a one-line verdict on which family describes the ensemble.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import stats as st
from .errors import DegenerateSampleError, GridsweepError, ParameterError
from .md import DefectRecord, MDParams, run_tensile
from .outputs import staged_outputs

JOB_CSV_HEADER = ["strain", "c_fcc", "c_hcp", "c_unk", "sigma_top", "energy"]
LEDGER_CSV_HEADER = ["job_id", "seed", "status", "wall_time_s"]
LEDGER_SUMMARY_HEADER = ["n_jobs", "n_ok", "n_failed", "t_seq_est_s", "t_wall_s", "speedup"]
REPORT_CSV_HEADER = ["label", "family", "param1", "param2", "loglik", "ks_d", "ks_p", "mode"]
CLOUD_CSV_HEADER = ["beta1", "beta2"]
QQ_CSV_HEADER = ["theoretical", "empirical"]
VERDICT_CSV_HEADER = ["strain", "observable", "n", "verdict", "p_normal", "p_weibull", "mode"]

OBSERVABLES = ("c_hcp", "c_unk", "sigma_top")


@dataclass(frozen=True)
class SweepSpec:
    nx: int = 4
    ny: int = 6
    nz: int = 4
    strain_rate: float = 0.1
    target_strain: float = 0.20
    n_realizations: int = 100
    base_seed: int = 0
    parallelism: int = 4
    output_dir: str = "sweep_out"
    md: MDParams = field(default_factory=MDParams)

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ParameterError("n_realizations must be >= 1")
        if self.parallelism < 1:
            raise ParameterError("parallelism must be >= 1")

    def job_seed(self, i: int) -> int:
        return self.base_seed + i

    def md_params(self) -> MDParams:
        return replace(self.md, strain_rate=self.strain_rate,
                       target_strain=self.target_strain)


@dataclass(frozen=True)
class JobResult:
    job_id: int
    seed: int
    status: str  # 'ok' | 'failed'
    wall_time_s: float
    error: str = ""


@dataclass
class SweepLedger:
    jobs: list[JobResult]
    t_seq_est_s: float
    t_wall_s: float

    @property
    def speedup(self) -> float:
        return self.t_seq_est_s / self.t_wall_s if self.t_wall_s > 0 else 0.0


def job_csv_path(output_dir, job_id: int) -> Path:
    return Path(output_dir) / f"job_{job_id:04d}.csv"


def write_records_csv(records: list[DefectRecord], path) -> None:
    with staged_outputs() as stage, open(stage(path), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(JOB_CSV_HEADER)
        for r in records:
            w.writerow([repr(float(x)) for x in
                        (r.strain, r.c_fcc, r.c_hcp, r.c_unk, r.sigma_top, r.energy)])


def read_records_csv(path) -> list[dict[str, float]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != JOB_CSV_HEADER:
            raise ParameterError(f"{path}: bad job header {reader.fieldnames!r}")
        return [{k: float(v) for k, v in row.items()} for row in reader]


def _run_one(spec: SweepSpec, job_id: int) -> JobResult:
    seed = spec.job_seed(job_id)
    t0 = time.perf_counter()
    try:
        records = run_tensile(spec.md_params(), (spec.nx, spec.ny, spec.nz), seed=seed)
        write_records_csv(records, job_csv_path(spec.output_dir, job_id))
        status, error = "ok", ""
    except GridsweepError as exc:
        status, error = "failed", str(exc)
    return JobResult(job_id, seed, status, time.perf_counter() - t0, error)


def sweep_run(spec: SweepSpec) -> SweepLedger:
    """Run the sweep through a bounded worker pool; failures never abort it."""
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise ParameterError(f"output dir {out} is not writable")

    t0 = time.perf_counter()
    if spec.parallelism == 1:
        results = [_run_one(spec, i) for i in range(spec.n_realizations)]
    else:
        with ProcessPoolExecutor(max_workers=spec.parallelism) as pool:
            results = list(pool.map(_run_one, [spec] * spec.n_realizations,
                                    range(spec.n_realizations)))
    t_wall = time.perf_counter() - t0
    results.sort(key=lambda r: r.job_id)
    t_seq = sum(r.wall_time_s for r in results)
    ledger = SweepLedger(jobs=results, t_seq_est_s=t_seq, t_wall_s=t_wall)
    write_ledger(ledger, out)
    return ledger


def write_ledger(ledger: SweepLedger, output_dir) -> None:
    out = Path(output_dir)
    n_ok = sum(1 for r in ledger.jobs if r.status == "ok")
    with staged_outputs() as stage:
        with open(stage(out / "ledger.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(LEDGER_CSV_HEADER)
            for r in ledger.jobs:
                w.writerow([r.job_id, r.seed, r.status, repr(r.wall_time_s)])
        with open(stage(out / "ledger_summary.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(LEDGER_SUMMARY_HEADER)
            w.writerow([len(ledger.jobs), n_ok, len(ledger.jobs) - n_ok,
                        repr(ledger.t_seq_est_s), repr(ledger.t_wall_s), repr(ledger.speedup)])


# --- ensemble analysis ---------------------------------------------------


@dataclass
class AnalysisResult:
    sample: st.Sample
    strain: float
    observable: str
    verdict: str  # 'normal' | 'weibull' | 'indistinguishable' | 'degenerate'
    fits: dict[str, st.FitResult] = field(default_factory=dict)
    ks: dict[tuple[str, str], st.KsOutcome] = field(default_factory=dict)
    moments: st.MomentSummary | None = None
    cloud: st.BootstrapCloud | None = None


def collect_observable(input_dir, strain: float, observable: str,
                       tol: float = 1e-9) -> st.Sample:
    """Pool one observable at one strain checkpoint across all job files.

    Files are taken in sorted job-id order so the result is independent of
    directory enumeration order.
    """
    if observable not in OBSERVABLES:
        raise ParameterError(f"observable must be one of {OBSERVABLES}")
    paths = sorted(Path(input_dir).glob("job_*.csv"))
    if not paths:
        raise ParameterError(f"no job_*.csv files in {input_dir}")
    values = []
    available: set[float] = set()
    for path in paths:
        rows = read_records_csv(path)
        hit = None
        for row in rows:
            available.add(row["strain"])
            if abs(row["strain"] - strain) <= tol:
                hit = row
        if hit is not None:
            values.append(hit[observable])
    if len(values) < 2:
        raise ParameterError(
            f"checkpoint strain={strain} found in {len(values)} files; "
            f"available strains: {sorted(available)}")
    return st.Sample(np.asarray(values), label=f"{observable}@eps={strain}")


def classify_sample(sample: st.Sample, seed: int = 0, n_resamples: int = 999,
                    p_floor: float = 0.05, tie_factor: float = 2.0,
                    mode: str = "parametric_bootstrap") -> AnalysisResult:
    """Fit both families, KS-test in both modes, and pick a verdict.

    The verdict compares the requested mode's p-values: larger p wins,
    except that two p-values both above ``p_floor`` and within a factor
    ``tie_factor`` of each other are called indistinguishable.
    """
    res = AnalysisResult(sample=sample, strain=math.nan, observable=sample.label,
                         verdict="degenerate")
    v = sample.values
    try:
        fits = {"normal": st.fit_normal(v)}
        if np.all(v > 0):
            fits["weibull"] = st.fit_weibull(v)
    except DegenerateSampleError:
        return res
    res.fits = fits
    for family, fit in fits.items():
        if not fit.converged:
            continue
        res.ks[(family, "asymptotic")] = st.ks_test(v, fit, "asymptotic")
        res.ks[(family, "parametric_bootstrap")] = st.ks_test(
            v, fit, "parametric_bootstrap", n_resamples=n_resamples, seed=seed)
    res.moments = st.moment_summary(v)
    res.cloud = st.bootstrap_cloud(v, n_resamples=1000, seed=seed)

    p_n = res.ks.get(("normal", mode))
    p_w = res.ks.get(("weibull", mode))
    if p_w is None and p_n is None:
        res.verdict = "degenerate"
    elif p_w is None:
        res.verdict = "normal"
    elif p_n is None:
        res.verdict = "weibull"
    else:
        pn, pw = p_n.p_value, p_w.p_value
        if pn > p_floor and pw > p_floor and max(pn, pw) <= tie_factor * min(pn, pw):
            res.verdict = "indistinguishable"
        else:
            res.verdict = "normal" if pn > pw else "weibull"
    return res


def analyze_ensemble(input_dir, strain: float, observable: str, out_dir,
                     seed: int = 0, n_resamples: int = 999) -> AnalysisResult:
    """Full ensemble analysis; writes report/cloud/QQ/verdict CSVs atomically."""
    sample = collect_observable(input_dir, strain, observable)
    if sample.values.max() == sample.values.min():
        res = AnalysisResult(sample=sample, strain=strain, observable=observable,
                             verdict="degenerate")
    else:
        res = classify_sample(sample, seed=seed, n_resamples=n_resamples)
        res.strain = strain
        res.observable = observable

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with staged_outputs() as stage:
        def writer(name):
            return open(stage(out / name), "w", newline="")

        with writer("report.csv") as fh:
            w = csv.writer(fh)
            w.writerow(REPORT_CSV_HEADER)
            for family, fit in res.fits.items():
                for mode in ("asymptotic", "parametric_bootstrap"):
                    ks = res.ks.get((family, mode))
                    if ks is None:
                        continue
                    w.writerow([sample.label, family, repr(fit.params[0]),
                                repr(fit.params[1]), repr(fit.log_likelihood),
                                repr(ks.statistic), repr(ks.p_value), mode])
        with writer("cloud.csv") as fh:
            w = csv.writer(fh)
            w.writerow(CLOUD_CSV_HEADER)
            if res.cloud is not None:
                for b1, b2 in res.cloud.points:
                    w.writerow([repr(float(b1)), repr(float(b2))])
        for family, fit in res.fits.items():
            if not fit.converged:
                continue
            with writer(f"qq_{family}.csv") as fh:
                w = csv.writer(fh)
                w.writerow(QQ_CSV_HEADER)
                for tq, eq in st.qq_points(sample.values, fit):
                    w.writerow([repr(float(tq)), repr(float(eq))])
        with writer("verdict.csv") as fh:
            w = csv.writer(fh)
            w.writerow(VERDICT_CSV_HEADER)
            kn = res.ks.get(("normal", "parametric_bootstrap"))
            kw = res.ks.get(("weibull", "parametric_bootstrap"))
            w.writerow([repr(strain), observable, sample.values.size, res.verdict,
                        repr(kn.p_value) if kn else "", repr(kw.p_value) if kw else "",
                        "parametric_bootstrap"])
    return res
