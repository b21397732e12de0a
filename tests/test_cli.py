"""End-to-end command line behavior: exit codes, files, determinism."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from gridsweep import gridsim, sweep as sweep_mod
from gridsweep.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, build_parser, main
from gridsweep.hosts import HostPopulation, HostSpec, write_population_csv
from gridsweep.md import DefectRecord
from gridsweep.sweep import job_csv_path, write_records_csv

TABLE2 = Path(__file__).resolve().parents[1] / "scenarios" / "table2.scenario"
DATA = Path(__file__).parent / "data"
#: sha256 of trace.csv from `sim run --scenario scenarios/table2.scenario`
TABLE2_TRACE_SHA256 = "f6009efc5f68e9cb10989334ec79d49cf2f511004caad9efdb3205deb9b13711"
#: sha256 of `hosts sample --preset NAME` at seed 0, recorded when each preset
#: was built by its own function, so the hosts.PRESETS table cannot drift
PRESET_POPULATION_SHA256 = {
    "pool": "664ce4bec9f8a6ec43729424d64ce96824153b33f5035dd68ff6c1781ed0a805",
    "registered": "4a9a792b1e0cbd2ccfef585540e899268a4aba7e3753e483a11c6bb5bc4593df",
}


def ideal_pop_csv(path, gflops=2.514, n_hosts=1):
    hosts = [HostSpec(id=i, gflops=gflops, n_cpus=1, ram_gb=8, hdd_gb=100,
                      on_rate=0.0, off_rate=0.0) for i in range(n_hosts)]
    write_population_csv(HostPopulation(hosts=hosts), path)


def one_task_scenario(path, pop_csv):
    path.write_text(
        f"[hosts]\ncsv = {pop_csv}\n\n[sim]\nseed = 0\n\n"
        "[task.1]\nname = a\nt_job_ref_min = 60\nn_jobs = 1\nmode = shared\n")


# --- hosts ---------------------------------------------------------------


def test_hosts_sample_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code = main(["hosts", "sample", "--preset", "pool", "--n", "50",
                     "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    main(["hosts", "sample", "--preset", "pool", "--n", "50", "--seed", "4",
          "--out", str(c)])
    assert c.read_bytes() != a.read_bytes()


@pytest.mark.parametrize("preset", sorted(PRESET_POPULATION_SHA256))
def test_hosts_sample_preset_matches_golden_bytes(tmp_path, preset):
    out = tmp_path / "pop.csv"
    assert main(["hosts", "sample", "--preset", preset, "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PRESET_POPULATION_SHA256[preset]


def test_hosts_summary_stdout_and_file(tmp_path, capsys):
    pop_csv = tmp_path / "pop.csv"
    ideal_pop_csv(pop_csv, n_hosts=3)
    assert main(["hosts", "summary", "--pop", str(pop_csv)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "attribute,mean,sd,min,max,count"
    assert any(line.startswith("gflops,2.514,0.0,") for line in out)
    summary = tmp_path / "summary.csv"
    assert main(["hosts", "summary", "--pop", str(pop_csv),
                 "--out", str(summary)]) == EXIT_OK
    assert summary.read_text().splitlines()[0] == "attribute,mean,sd,min,max,count"


def test_hosts_sample_missing_params_file(tmp_path):
    code = main(["hosts", "sample", "--params", str(tmp_path / "nope.params"),
                 "--out", str(tmp_path / "pop.csv")])
    assert code == EXIT_RUNTIME
    assert not (tmp_path / "pop.csv").exists()


# --- sim -----------------------------------------------------------------


def test_sim_run_single_ideal_host(tmp_path):
    pop_csv = tmp_path / "pop.csv"
    ideal_pop_csv(pop_csv)
    scn = tmp_path / "one.scenario"
    one_task_scenario(scn, pop_csv)
    out = tmp_path / "sim"
    assert main(["sim", "run", "--scenario", str(scn),
                 "--out-dir", str(out)]) == EXIT_OK
    trace = (out / "trace.csv").read_text().splitlines()
    assert len(trace) == 1 + 2  # one dispatch, one completion
    speedup_rows = [line.split(",") for line in
                    (out / "speedup.csv").read_text().splitlines()[1:]]
    by_name = {row[0]: row for row in speedup_rows}
    assert float(by_name["a"][5]) == pytest.approx(1.0, abs=1e-9)
    assert float(by_name["TOTAL"][5]) == pytest.approx(1.0, abs=1e-9)
    assert (out / "regimes.csv").exists()


def test_sim_rerun_is_byte_identical(tmp_path):
    pop_csv = tmp_path / "pop.csv"
    ideal_pop_csv(pop_csv, n_hosts=4)
    scn = tmp_path / "one.scenario"
    scn.write_text(
        f"[hosts]\ncsv = {pop_csv}\n\n[sim]\nseed = 5\n\n"
        "[task.1]\nname = a\nt_job_ref_min = 30\nn_jobs = 9\nmode = shared\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["sim", "run", "--scenario", str(scn),
                     "--out-dir", str(out)]) == EXIT_OK
    for name in ("trace.csv", "speedup.csv", "regimes.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_sim_run_table2_matches_golden_bytes(tmp_path):
    """table2's trace, speedup and regimes files against bytes recorded with
    the per-task rescanning analysis (tests/data/table2_*.csv)."""
    assert main(["sim", "run", "--scenario", str(TABLE2),
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    trace = (tmp_path / "trace.csv").read_bytes()
    assert hashlib.sha256(trace).hexdigest() == TABLE2_TRACE_SHA256
    for name in ("speedup.csv", "regimes.csv"):
        assert (tmp_path / name).read_bytes() == (DATA / f"table2_{name}").read_bytes()


def test_sim_failing_writer_leaves_no_files(tmp_path, monkeypatch):
    pop_csv = tmp_path / "pop.csv"
    ideal_pop_csv(pop_csv)
    scn = tmp_path / "one.scenario"
    one_task_scenario(scn, pop_csv)

    def disk_full(trace, path):
        raise OSError("disk full")

    monkeypatch.setattr(gridsim, "write_speedup_csv", disk_full)
    out = tmp_path / "sim"
    assert main(["sim", "run", "--scenario", str(scn),
                 "--out-dir", str(out)]) == EXIT_RUNTIME
    assert list(out.iterdir()) == []


def test_sim_unknown_preset_exits_2_without_outputs(tmp_path):
    scn = tmp_path / "bad.scenario"
    scn.write_text("[hosts]\npreset = nope\n\n"
                   "[task.1]\nname = a\nt_job_ref_min = 30\nn_jobs = 9\n")
    out = tmp_path / "sim"
    assert main(["sim", "run", "--scenario", str(scn),
                 "--out-dir", str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_sim_malformed_scenario_exits_2_without_outputs(tmp_path):
    scn = tmp_path / "bad.scenario"
    scn.write_text("[hosts]\nwat = 1\n")
    out = tmp_path / "sim"
    assert main(["sim", "run", "--scenario", str(scn),
                 "--out-dir", str(out)]) == EXIT_USAGE
    assert not out.exists()


# --- sweep + analyze -----------------------------------------------------


def test_sweep_and_analyze_pipeline(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "run", "--nx", "2", "--ny", "4", "--nz", "2",
                 "--strain-rate", "0.4", "--target-strain", "0.02",
                 "--n-realizations", "3", "--parallelism", "1",
                 "--out-dir", str(out)])
    assert code == EXIT_OK
    assert (out / "ledger.csv").exists()
    assert job_csv_path(out, 2).exists()

    analysis = tmp_path / "analysis"
    code = main(["analyze", "--input-dir", str(out), "--strain", "0.02",
                 "--observable", "sigma_top", "--out-dir", str(analysis),
                 "--n-resamples", "99"])
    assert code == EXIT_OK
    assert "verdict:" in capsys.readouterr().out
    assert (analysis / "verdict.csv").exists()


def test_sweep_failing_writer_leaves_no_files(tmp_path, monkeypatch):
    def disk_full(trace, path):
        raise OSError("disk full")

    monkeypatch.setattr(gridsim, "write_regimes_csv", disk_full)
    out = tmp_path / "sweep"
    assert main(["sweep", "run", "--nx", "2", "--ny", "4", "--nz", "2",
                 "--strain-rate", "0.4", "--target-strain", "0.02",
                 "--n-realizations", "1", "--parallelism", "1",
                 "--out-dir", str(out)]) == EXIT_RUNTIME
    left = {p.name for p in out.iterdir()}
    assert left <= {"job_0000.csv"}


def test_analyze_missing_checkpoint_exits_1(tmp_path):
    for i in range(3):
        records = [DefectRecord(0.0, 1.0, 0.0, 0.0, 0.1 * i, -1.0)]
        write_records_csv(records, job_csv_path(tmp_path, i))
    out = tmp_path / "analysis"
    code = main(["analyze", "--input-dir", str(tmp_path), "--strain", "0.5",
                 "--observable", "c_unk", "--out-dir", str(out)])
    assert code == EXIT_RUNTIME
    assert not out.exists() or not any(out.iterdir())


def test_analyze_underflowing_variance_is_degenerate(tmp_path, capsys):
    for i, sigma in enumerate((0.0, 1e-170, 0.0)):
        write_records_csv([DefectRecord(0.0, 1.0, 0.0, 0.0, sigma, -1.0)],
                          job_csv_path(tmp_path, i))
    out = tmp_path / "analysis"
    code = main(["analyze", "--input-dir", str(tmp_path), "--strain", "0.0",
                 "--observable", "sigma_top", "--out-dir", str(out)])
    assert code == EXIT_OK
    assert "verdict: degenerate" in capsys.readouterr().out
    assert (out / "verdict.csv").read_text().splitlines()[1].split(",")[3] == "degenerate"


def test_sweep_run_flag_defaults_are_the_spec_defaults(tmp_path, monkeypatch):
    built = []

    def capture(spec):
        built.append(spec)
        return sweep_mod.SweepLedger([sweep_mod.JobResult(0, 0, "ok", 0.0, 0.0, 0.0, 0)], None)

    monkeypatch.setattr(sweep_mod, "sweep_run", capture)
    assert main(["sweep", "run", "--out-dir", str(tmp_path)]) == EXIT_OK
    parallelism = build_parser().parse_args(["sweep", "run", "--out-dir", "x"]).parallelism
    assert built == [sweep_mod.SweepSpec(output_dir=str(tmp_path), parallelism=parallelism)]


def test_unknown_observable_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input-dir", str(tmp_path), "--strain", "0.1",
              "--observable", "wat", "--out-dir", str(tmp_path / "x")])
    assert exc.value.code == EXIT_USAGE
