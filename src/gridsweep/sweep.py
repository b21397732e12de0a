"""Local worker-pool sweep runner and ensemble analysis.

A sweep runs many tensile MD realizations (identical conditions, different
velocity seeds) through a bounded process pool, writes one defect-record
CSV per job, and records the run as a grid-simulator trace, so gridsim's
T_seq / T_dg table and regime segmentation apply to it unchanged.

The analysis side pools one observable at one strain checkpoint across all
job files and runs the full statistics chain: normal and Weibull fits, a
parametric-bootstrap KS test per fitted family, bootstrap cloud, QQ points,
and a one-line verdict on which family describes the ensemble.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import gridsim, stats as st
from .errors import DegenerateSampleError, ParameterError
from .md import DefectRecord, MDParams, build_crystal, checkpoint_steps, run_tensile
from .outputs import read_csv, staged_outputs, write_csv

JOB_CSV_HEADER = ["strain", "c_fcc", "c_hcp", "c_unk", "sigma_top", "energy"]
LEDGER_CSV_HEADER = ["job_id", "seed", "status", "wall_time_s", "cpu_time_s", "error"]
LEDGER_SUMMARY_HEADER = ["n_jobs", "n_ok", "n_failed"]
REPORT_CSV_HEADER = ["label", "family", "param1", "param2", "loglik", "ks_d", "ks_p", "mode"]
CLOUD_CSV_HEADER = ["beta1", "beta2"]
QQ_CSV_HEADER = ["theoretical", "empirical"]
VERDICT_CSV_HEADER = ["strain", "observable", "n", "verdict", "p_normal", "p_weibull", "mode"]

OBSERVABLES = ("c_hcp", "c_unk", "sigma_top")

#: the verdict compares the bootstrap KS p-values (this label fills the
#: ``mode`` columns): larger p wins, except that two p-values both above
#: P_FLOOR and within a factor TIE_FACTOR of each other are indistinguishable
VERDICT_MODE = "parametric_bootstrap"
P_FLOOR = 0.05
TIE_FACTOR = 2.0

#: a job file's row is the checkpoint asked for when its strain is this close
STRAIN_TOL = 1e-9


@dataclass(frozen=True)
class SweepSpec:
    nx: int = 4
    ny: int = 6
    nz: int = 4
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


@dataclass(frozen=True)
class JobResult:
    job_id: int
    seed: int
    status: str  # 'ok' | 'failed'
    wall_time_s: float
    cpu_time_s: float
    start_s: float  # since the sweep's start, on the monotonic clock all workers share
    pid: int  # the worker process that ran the job
    error: str = ""  # "<exception type>: <message>" of a failed job


@dataclass
class SweepLedger:
    jobs: list[JobResult]
    trace: gridsim.SimTrace


def job_csv_path(output_dir, job_id: int) -> Path:
    return Path(output_dir) / f"job_{job_id:04d}.csv"


def write_records_csv(records: list[DefectRecord], path) -> None:
    with staged_outputs() as stage:
        write_csv(stage(path), JOB_CSV_HEADER, map(astuple, records))


def read_records_csv(path) -> np.ndarray:
    """A job CSV's rows as an (m, 6) float array, columns in JOB_CSV_HEADER order."""
    rows = []
    for line, fields in read_csv(path, JOB_CSV_HEADER, ParameterError):
        try:
            rows.append([float(x) for x in fields])
        except ValueError as exc:
            raise ParameterError(f"{path}:{line}: {exc}") from None
    return np.array(rows, dtype=float).reshape(-1, len(JOB_CSV_HEADER))


def _run_one(spec: SweepSpec, t_origin: float, job_id: int) -> JobResult:
    seed = spec.job_seed(job_id)
    t0, cpu0 = time.perf_counter(), time.process_time()
    try:
        records = run_tensile(spec.md, (spec.nx, spec.ny, spec.nz), seed=seed)
        write_records_csv(records, job_csv_path(spec.output_dir, job_id))
        status, error = "ok", ""
    except Exception as exc:  # any job failure is recorded; BaseExceptions propagate
        status, error = "failed", f"{type(exc).__name__}: {exc}"
    return JobResult(job_id, seed, status, time.perf_counter() - t0,
                     time.process_time() - cpu0, t0 - t_origin, os.getpid(), error)


def _job_trace(spec: SweepSpec, jobs: list[JobResult]) -> gridsim.SimTrace:
    """The sweep as a one-task gridsim trace whose T_seq is the jobs' summed CPU time.

    Each job is dispatched and completed on ``host_id`` = its worker process,
    the workers numbered in the order of their first job.
    """
    name = f"S={spec.nx}x{spec.ny}x{spec.nz},V={spec.md.strain_rate:g}"
    slots: dict[int, int] = {}
    events = []
    for r in sorted(jobs, key=lambda r: r.start_s):
        host = slots.setdefault(r.pid, len(slots))
        events += [gridsim.TraceEvent(r.start_s, gridsim.DISPATCH, r.job_id, name, host),
                   gridsim.TraceEvent(r.start_s + r.wall_time_s, gridsim.COMPLETE,
                                      r.job_id, name, host)]
    events.sort(key=lambda e: e.time)
    t_job = sum(r.cpu_time_s for r in jobs) / len(jobs)
    return gridsim.SimTrace(events, [gridsim.TaskSpec(name, t_job, len(jobs))])


def sweep_run(spec: SweepSpec) -> SweepLedger:
    """Run the sweep through a bounded worker pool; failures never abort it."""
    # an impossible geometry or strain rate fails here, not per job
    checkpoint_steps(spec.md, build_crystal(spec.nx, spec.ny, spec.nz))
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise ParameterError(f"output dir {out} is not writable")

    run = partial(_run_one, spec, time.perf_counter())
    job_ids = range(spec.n_realizations)
    if spec.parallelism == 1:
        results = list(map(run, job_ids))
    else:
        with ProcessPoolExecutor(max_workers=spec.parallelism) as pool:
            results = list(pool.map(run, job_ids))
    ledger = SweepLedger(jobs=results, trace=_job_trace(spec, results))
    write_ledger(ledger, out)
    return ledger


def write_ledger(ledger: SweepLedger, output_dir) -> None:
    """Write the ledger and the sweep's gridsim trace files, all or none."""
    out = Path(output_dir)
    n_ok = sum(1 for r in ledger.jobs if r.status == "ok")
    with staged_outputs() as stage:
        write_csv(stage(out / "ledger.csv"), LEDGER_CSV_HEADER,
                  ([r.job_id, r.seed, r.status, repr(r.wall_time_s), repr(r.cpu_time_s),
                    r.error] for r in ledger.jobs))
        write_csv(stage(out / "ledger_summary.csv"), LEDGER_SUMMARY_HEADER,
                  [[len(ledger.jobs), n_ok, len(ledger.jobs) - n_ok]])
        gridsim.write_trace_csvs(ledger.trace, stage, out)


# --- ensemble analysis ---------------------------------------------------


@dataclass
class AnalysisResult:
    verdict: str  # 'normal' | 'weibull' | 'indistinguishable' | 'degenerate'
    fits: dict[str, st.FitResult] = field(default_factory=dict)
    ks: dict[str, st.KsOutcome] = field(default_factory=dict)  # by family
    cloud: np.ndarray | None = None  # bootstrap (beta1, beta2) points, one row each


def collect_observable(input_dir, strain: float, observable: str) -> np.ndarray:
    """Pool one observable at one strain checkpoint across all job files.

    Files are taken in sorted job-id order so the result is independent of
    directory enumeration order.
    """
    if observable not in OBSERVABLES:
        raise ParameterError(f"observable must be one of {OBSERVABLES}")
    paths = sorted(Path(input_dir).glob("job_*.csv"))
    if not paths:
        raise ParameterError(f"no job_*.csv files in {input_dir}")
    column = JOB_CSV_HEADER.index(observable)
    values = []
    available: set[float] = set()
    for path in paths:
        rows = read_records_csv(path)
        available.update(rows[:, 0].tolist())
        hits = np.flatnonzero(np.abs(rows[:, 0] - strain) <= STRAIN_TOL)
        if hits.size:  # the last matching row, as a file is read top to bottom
            values.append(rows[hits[-1], column])
    if len(values) < 2:
        raise ParameterError(
            f"checkpoint strain={strain} found in {len(values)} files; "
            f"available strains: {sorted(available)}")
    return np.asarray(values)


def classify_sample(sample: np.ndarray, seed: int = 0,
                    n_resamples: int = 999) -> AnalysisResult:
    """Fit both families, bootstrap KS-test each converged fit, and pick a
    verdict (see VERDICT_MODE); a constant sample, or one whose variance
    underflows to 0, is 'degenerate' and gets no fits."""
    if n_resamples < 1:
        raise ParameterError("n_resamples must be >= 1")
    res = AnalysisResult(verdict="degenerate")
    try:
        fits = {"normal": st.fit_normal(sample)}
        if np.all(sample > 0):
            fits["weibull"] = st.fit_weibull(sample)
    except DegenerateSampleError:
        return res
    res.fits = fits
    res.ks = {family: st.ks_test(sample, fit, n_resamples=n_resamples, seed=seed)
              for family, fit in fits.items() if fit.converged}
    res.cloud = st.bootstrap_cloud(sample, n_resamples=1000, seed=seed)

    if "weibull" not in res.ks:  # fit_normal always converges, so res.ks has "normal"
        res.verdict = "normal"
    else:
        pn, pw = res.ks["normal"].p_value, res.ks["weibull"].p_value
        if pn > P_FLOOR and pw > P_FLOOR and max(pn, pw) <= TIE_FACTOR * min(pn, pw):
            res.verdict = "indistinguishable"
        else:
            res.verdict = "normal" if pn > pw else "weibull"
    return res


def analyze_ensemble(input_dir, strain: float, observable: str, out_dir,
                     seed: int = 0, n_resamples: int = 999) -> AnalysisResult:
    """Full ensemble analysis; writes report/cloud/QQ/verdict CSVs atomically."""
    sample = collect_observable(input_dir, strain, observable)
    res = classify_sample(sample, seed=seed, n_resamples=n_resamples)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with staged_outputs() as stage:
        # res.ks holds each converged family, in res.fits order
        write_csv(stage(out / "report.csv"), REPORT_CSV_HEADER,
                  ([f"{observable}@eps={strain}", family, repr(res.fits[family].params[0]),
                    repr(res.fits[family].params[1]), repr(res.fits[family].log_likelihood),
                    repr(ks.statistic), repr(ks.p_value), VERDICT_MODE]
                   for family, ks in res.ks.items()))
        write_csv(stage(out / "cloud.csv"), CLOUD_CSV_HEADER,
                  [] if res.cloud is None else res.cloud.tolist())
        for family, fit in res.fits.items():
            if fit.converged:
                write_csv(stage(out / f"qq_{family}.csv"), QQ_CSV_HEADER,
                          st.qq_points(sample, fit).tolist())
        kn, kw = res.ks.get("normal"), res.ks.get("weibull")
        write_csv(stage(out / "verdict.csv"), VERDICT_CSV_HEADER,
                  [[repr(strain), observable, sample.size, res.verdict,
                    repr(kn.p_value) if kn else "", repr(kw.p_value) if kw else "",
                    VERDICT_MODE]])
    return res
