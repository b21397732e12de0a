"""Sweep runner ledger/accounting and ensemble analysis outputs."""

import csv
import hashlib
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridsweep import sweep
from gridsweep.errors import ParameterError
from gridsweep.gridsim import TRACE_CSV_HEADER, speedup_table
from gridsweep.md import DefectRecord, MDParams, run_tensile
from gridsweep.sweep import (
    SweepSpec,
    analyze_ensemble,
    classify_sample,
    collect_observable,
    job_csv_path,
    read_records_csv,
    sweep_run,
    write_records_csv,
)

TINY_MD = MDParams(temperature=0.05, equilibration_steps=5, strain_rate=0.4,
                   target_strain=0.02)


def tiny_spec(out_dir, n=3, **kw):
    defaults = dict(nx=2, ny=4, nz=2, n_realizations=n, base_seed=10, parallelism=1,
                    output_dir=str(out_dir), md=TINY_MD)
    defaults.update(kw)
    return SweepSpec(**defaults)


def fake_job(path, strains, values):
    """Write a synthetic job file with c_unk = values at the given strains."""
    records = [DefectRecord(strain=s, c_fcc=1.0 - v, c_hcp=0.0, c_unk=v,
                            sigma_top=2.0 * v, energy=-1.0)
               for s, v in zip(strains, values)]
    write_records_csv(records, path)


# --- sweep runner --------------------------------------------------------


def test_tiny_sweep_completes_and_accounts(tmp_path):
    ledger = sweep_run(tiny_spec(tmp_path))
    assert [j.status for j in ledger.jobs] == ["ok"] * 3
    assert [j.seed for j in ledger.jobs] == [10, 11, 12]
    for i in range(3):
        assert job_csv_path(tmp_path, i).exists()
    assert (tmp_path / "ledger.csv").exists()
    assert (tmp_path / "ledger_summary.csv").exists()
    # serial pool: estimated sequential time cannot beat the wall clock
    assert 0.2 < speedup_table(ledger.trace)[-1].speedup <= 1.01


def test_oversubscribed_sweep_speedup_is_bounded_by_cores(tmp_path):
    """More workers than cores: the CPU seconds spent inside T_dg cannot
    exceed cores x T_dg, so neither can the reported speedup."""
    cores = len(os.sched_getaffinity(0))
    parallelism = cores + 2
    ledger = sweep_run(tiny_spec(tmp_path, n=2 * parallelism, parallelism=parallelism))
    assert [j.status for j in ledger.jobs] == ["ok"] * (2 * parallelism)
    assert speedup_table(ledger.trace)[-1].speedup <= 1.05 * cores


def test_sweep_trace_feeds_the_simulator_analysis(tmp_path):
    sweep_run(tiny_spec(tmp_path, n=3, parallelism=2))

    def rows(name):
        with open(tmp_path / name, newline="") as fh:
            return list(csv.reader(fh))

    trace = rows("trace.csv")
    assert trace[0] == TRACE_CSV_HEADER
    assert sorted(r[1] for r in trace[1:]) == ["complete"] * 3 + ["dispatch"] * 3
    assert sorted(r[2] for r in trace[1:]) == ["0", "0", "1", "1", "2", "2"]
    assert {r[4] for r in trace[1:]} <= {"0", "1"}
    assert [r[0] for r in rows("speedup.csv")[1:]] == ["S=2x4x2,V=0.4", "Subtotal", "TOTAL"]
    regimes = rows("regimes.csv")[1:]
    assert len(regimes) == 1 and int(regimes[0][8]) <= 2
    assert rows("ledger.csv")[0] == ["job_id", "seed", "status", "wall_time_s", "cpu_time_s",
                                     "error"]
    assert rows("ledger_summary.csv") == [["n_jobs", "n_ok", "n_failed"], ["3", "3", "0"]]


def test_sweep_jobs_differ_by_seed_but_rerun_identically(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    sweep_run(tiny_spec(a_dir, n=2))
    sweep_run(tiny_spec(b_dir, n=2))
    for i in range(2):
        assert (job_csv_path(a_dir, i).read_bytes()
                == job_csv_path(b_dir, i).read_bytes())
    assert (job_csv_path(a_dir, 0).read_bytes()
            != job_csv_path(a_dir, 1).read_bytes())


def test_blown_up_jobs_are_recorded_not_fatal(tmp_path):
    # rate 0.01 keeps dt = 1.0's checkpoints on distinct steps, so the sweep
    # starts and its jobs blow up in equilibration
    bad_md = replace(TINY_MD, dt=1.0, temperature=1.0, equilibration_steps=50,
                     strain_rate=0.01)
    ledger = sweep_run(tiny_spec(tmp_path, n=2, md=bad_md))
    assert [j.status for j in ledger.jobs] == ["failed", "failed"]
    assert all(j.error for j in ledger.jobs)
    assert not job_csv_path(tmp_path, 0).exists()
    assert (tmp_path / "ledger.csv").exists()


@pytest.mark.parametrize("parallelism", [1, 2])
def test_any_job_exception_is_recorded_not_fatal(tmp_path, monkeypatch, parallelism):
    real = sweep.run_tensile

    def out_of_memory_at_seed_11(params, geometry, seed=0):
        if seed == 11:
            raise MemoryError("cannot allocate")
        return real(params, geometry, seed=seed)

    # patched before the pool forks, so the workers inherit it
    monkeypatch.setattr(sweep, "run_tensile", out_of_memory_at_seed_11)
    ledger = sweep_run(tiny_spec(tmp_path, n=3, parallelism=parallelism))
    assert [j.status for j in ledger.jobs] == ["ok", "failed", "ok"]
    assert ledger.jobs[1].error == "MemoryError: cannot allocate"
    with open(tmp_path / "ledger.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["job_id"], r["status"], r["error"]) for r in rows] == [
        ("0", "ok", ""), ("1", "failed", "MemoryError: cannot allocate"), ("2", "ok", "")]
    assert not job_csv_path(tmp_path, 1).exists()


def test_interrupt_still_aborts_the_sweep(tmp_path, monkeypatch):
    def interrupted(params, geometry, seed=0):
        raise KeyboardInterrupt

    monkeypatch.setattr(sweep, "run_tensile", interrupted)
    with pytest.raises(KeyboardInterrupt):
        sweep_run(tiny_spec(tmp_path, n=2))
    assert not (tmp_path / "ledger.csv").exists()


def test_default_spec_matches_golden_output(tmp_path):
    """Seed 0 at the default spec to strain 0.03 against a recorded job CSV.

    The reference was written with a dense all-pairs neighbour search.  A
    numerically neutral change keeps strain, c_* and energy byte-identical;
    sigma_top may move in the last place, because the order of its force
    sum is free.
    """
    spec = SweepSpec(md=MDParams(target_strain=0.03))
    path = tmp_path / "job.csv"
    write_records_csv(run_tensile(spec.md, (spec.nx, spec.ny, spec.nz),
                                  seed=spec.job_seed(0)), path)
    with open(Path(__file__).parent / "data" / "golden_job_seed0_eps0.03.csv") as fh:
        golden = list(csv.DictReader(fh))
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(golden) == 4
    for row, ref in zip(rows, golden):
        for col in ("strain", "c_fcc", "c_hcp", "c_unk", "energy"):
            assert row[col] == ref[col]
        assert float(row["sigma_top"]) == pytest.approx(float(ref["sigma_top"]), rel=1e-12)


#: sha256 of whole job CSVs at seed 0, every column exact: the default spec
#: run to its 0.20 target, and a 4x4x4 crystal, whose top and bottom grips
#: lie within the cutoff of each other, run to 0.05, and the 1,152-atom
#: 6x8x6 crystal of the big_slab benchmark run to 0.01
PINNED_JOBS = {
    "default": ((4, 6, 4), 0.20,
                "77bebfce451bf74a0cf73e66f907dd831d318a297d37e062a65087088c7781f1"),
    "4x4x4": ((4, 4, 4), 0.05,
              "e01b6aac04804499318c800e0981a991b06046267655e4ebdd70ce9393e50084"),
    "6x8x6": ((6, 8, 6), 0.01,
              "f4e65ac7ed281aee91c08f9a0ba389a581ab18aa95e5d03e3a662737aef4481a"),
}


@pytest.mark.parametrize("name", sorted(PINNED_JOBS))
def test_full_realization_matches_pinned_bytes(tmp_path, name):
    geometry, target_strain, sha256 = PINNED_JOBS[name]
    path = tmp_path / "job.csv"
    write_records_csv(run_tensile(MDParams(target_strain=target_strain), geometry, seed=0), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_spec_validation():
    with pytest.raises(ParameterError):
        SweepSpec(n_realizations=0)
    with pytest.raises(ParameterError):
        SweepSpec(parallelism=0)


FAKE_ROWS = [[0.0, 1.0, 0.0, 0.0, 0.0, -1.0], [0.01, 0.75, 0.0, 0.25, 0.5, -1.0]]


def test_records_csv_round_trip(tmp_path):
    path = tmp_path / "job_0000.csv"
    fake_job(path, [0.0, 0.01], [0.0, 0.25])
    rows = read_records_csv(path)
    assert rows.shape == (2, 6)
    assert rows.tolist() == FAKE_ROWS
    path.write_text("strain,c_fcc,c_hcp,c_unk,sigma_top,energy\r\n")
    assert read_records_csv(path).shape == (0, 6)
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ParameterError):
        read_records_csv(path)


@pytest.mark.parametrize("text", [
    b"strain,c_fcc,c_hcp,c_unk,sigma_top,energy\r\n0.0,1.0,0.0,0.0,0.0,-1.0\r\n\r\n"
    b"0.01,0.75,0.0,0.25,0.5,-1.0\r\n\r\n",
    b"strain,c_fcc,c_hcp,c_unk,sigma_top,energy\n0.0,1.0,0.0,0.0,0.0,-1.0\n"
    b"0.01,0.75,0.0,0.25,0.5,-1.0\n",
    b"strain,c_fcc,c_hcp,c_unk,sigma_top,energy\r\n0.0,1.0,0.0,0.0,0.0,-1.0\r\n"
    b'0.01,0.75,0.0,"0.25",0.5,-1.0\r\n',
], ids=["blank_line", "lf", "quoted_float"])
def test_records_csv_reads_what_a_csv_reader_accepts(tmp_path, text):
    path = tmp_path / "job_0000.csv"
    path.write_bytes(text)
    assert read_records_csv(path).tolist() == FAKE_ROWS


# --- collection ----------------------------------------------------------


def test_collect_pools_in_job_order(tmp_path):
    for i, v in [(2, 0.3), (0, 0.1), (1, 0.2)]:
        fake_job(job_csv_path(tmp_path, i), [0.0, 0.01], [0.0, v])
    sample = collect_observable(tmp_path, 0.01, "c_unk")
    assert list(sample) == [0.1, 0.2, 0.3]


def test_collect_missing_checkpoint_lists_available(tmp_path):
    fake_job(job_csv_path(tmp_path, 0), [0.0, 0.01], [0.0, 0.1])
    fake_job(job_csv_path(tmp_path, 1), [0.0, 0.01], [0.0, 0.2])
    with pytest.raises(ParameterError) as err:
        collect_observable(tmp_path, 0.05, "c_unk")
    assert "0.01" in str(err.value)
    with pytest.raises(ParameterError):
        collect_observable(tmp_path, 0.01, "wat")
    with pytest.raises(ParameterError):
        collect_observable(tmp_path / "empty", 0.01, "c_unk")


# --- classification ------------------------------------------------------


def test_weibull_ensemble_gets_weibull_verdict():
    rng = np.random.default_rng(1)
    sample = 0.2 * rng.weibull(1.0, 300)
    res = classify_sample(sample, seed=0, n_resamples=199)
    assert res.verdict == "weibull"
    assert set(res.fits) == {"normal", "weibull"}
    assert res.cloud is not None and res.cloud.shape == (1000, 2)


def test_normal_ensemble_gets_normal_verdict():
    rng = np.random.default_rng(2)
    sample = rng.normal(5.0, 0.5, 583)
    res = classify_sample(sample, seed=0, n_resamples=199)
    assert res.verdict == "normal"


def test_negative_values_skip_the_weibull_fit():
    rng = np.random.default_rng(3)
    sample = rng.normal(0.0, 1.0, 200)
    res = classify_sample(sample, seed=0, n_resamples=99)
    assert set(res.fits) == {"normal"}
    assert res.verdict == "normal"


def test_constant_sample_is_degenerate():
    # the last two vary, but their population variance underflows to 0
    for values in (np.full(50, 0.25), [0.0, 1e-170], [1e-300, 2e-300, 3e-300]):
        res = classify_sample(np.asarray(values))
        assert res.verdict == "degenerate"
        assert res.fits == {}


# --- analyze_ensemble ----------------------------------------------------


def test_analyze_writes_all_artifacts(tmp_path):
    rng = np.random.default_rng(4)
    values = 0.1 * rng.weibull(1.0, 80)
    for i, v in enumerate(values):
        fake_job(job_csv_path(tmp_path, i), [0.0, 0.02], [0.0, float(v)])
    out = tmp_path / "analysis"
    res = analyze_ensemble(tmp_path, 0.02, "c_unk", out, seed=0, n_resamples=199)
    assert res.verdict == "weibull"
    report = (out / "report.csv").read_text().splitlines()
    assert len(report) == 1 + 4  # 2 families x 2 ks modes
    assert all(row.startswith("c_unk@eps=0.02,") for row in report[1:])
    assert len((out / "cloud.csv").read_text().splitlines()) == 1 + 1000
    assert (out / "qq_normal.csv").exists()
    assert (out / "qq_weibull.csv").exists()
    verdict_row = (out / "verdict.csv").read_text().splitlines()[1].split(",")
    assert verdict_row[1] == "c_unk"
    assert verdict_row[2] == "80"
    assert verdict_row[3] == "weibull"


def test_analyze_is_deterministic(tmp_path):
    rng = np.random.default_rng(5)
    for i, v in enumerate(rng.normal(4.0, 0.3, 40)):
        fake_job(job_csv_path(tmp_path, i), [0.0, 0.01], [0.0, float(v)])
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    analyze_ensemble(tmp_path, 0.01, "c_unk", out_a, seed=9, n_resamples=99)
    analyze_ensemble(tmp_path, 0.01, "c_unk", out_b, seed=9, n_resamples=99)
    for name in ("report.csv", "cloud.csv", "qq_normal.csv", "verdict.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_analyze_degenerate_ensemble(tmp_path):
    for i in range(10):
        fake_job(job_csv_path(tmp_path, i), [0.0], [0.25])
    out = tmp_path / "analysis"
    res = analyze_ensemble(tmp_path, 0.0, "c_unk", out)
    assert res.verdict == "degenerate"
    assert (out / "verdict.csv").read_text().splitlines()[1].split(",")[3] == "degenerate"
    assert (out / "cloud.csv").read_text().splitlines() == ["beta1,beta2"]
    assert not (out / "qq_normal.csv").exists()


def test_analyze_missing_checkpoint_leaves_no_outputs(tmp_path):
    fake_job(job_csv_path(tmp_path, 0), [0.0], [0.1])
    fake_job(job_csv_path(tmp_path, 1), [0.0], [0.2])
    out = tmp_path / "analysis"
    with pytest.raises(ParameterError):
        analyze_ensemble(tmp_path, 0.07, "c_unk", out)
    assert not out.exists() or not any(out.iterdir())
