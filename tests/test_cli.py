"""End-to-end command line behavior: exit codes, files, determinism."""

import configparser
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridsweep
from gridsweep import gridsim, sweep as sweep_mod
from gridsweep.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, build_parser, main
from gridsweep.errors import BlowUpError
from gridsweep.hosts import HostSpec, write_population_csv
from gridsweep.md import DefectRecord
from gridsweep.outputs import staged_outputs
from gridsweep.scenario import parse_scenario
from gridsweep.stats import _weibull_profile, fit_weibull
from gridsweep.sweep import job_csv_path, write_records_csv

TABLE2 = Path(__file__).resolve().parents[1] / "scenarios" / "table2.scenario"
DATA = Path(__file__).parent / "data"
#: sha256 of trace.csv from `sim run --scenario scenarios/table2.scenario`
TABLE2_TRACE_SHA256 = "f6009efc5f68e9cb10989334ec79d49cf2f511004caad9efdb3205deb9b13711"
#: sha256 of each `sim run` output on table2's tasks and seeds with `[hosts]
#: preset = registered`, recorded before the hosts' streams were seeded in one
#: vectorized pass: it covers all 4,161 churn streams end to end
REGISTERED_SIM_SHA256 = {
    "regimes.csv": "445a92281aac065336e6b5e8cb238c84991e28f5deadf00c5ad5525a7b0cba87",
    "speedup.csv": "ecea0490e686afe528638b9cdb7bcd91b207e21e98e68fbefe5da4d535be14b9",
    "trace.csv": "6352ff132bb9d54dea5451a263908d0ea1c6fb57858bfc4f4998fdda259921b3",
}
#: sha256 of `hosts sample --preset NAME` at seed 0, recorded when each preset
#: was built by its own function, so the hosts.PRESETS table cannot drift
PRESET_POPULATION_SHA256 = {
    "pool": "664ce4bec9f8a6ec43729424d64ce96824153b33f5035dd68ff6c1781ed0a805",
    "registered": "4a9a792b1e0cbd2ccfef585540e899268a4aba7e3753e483a11c6bb5bc4593df",
}


def ideal_pop_csv(path, gflops=2.514, n_hosts=1):
    hosts = [HostSpec(id=i, gflops=gflops, n_cpus=1, ram_gb=8, hdd_gb=100,
                      on_rate=0.0, off_rate=0.0) for i in range(n_hosts)]
    write_population_csv(hosts, path)


def package_env():
    """The environment, with this gridsweep first on a subprocess's import path."""
    src = str(Path(gridsweep.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


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


@pytest.mark.parametrize("line", [
    "cpu_logmu = nan", "gflops_floor = nan", "gflops_mean = nan", "gflops_sd = inf",
    "ram_logsigma = inf",
])
def test_hosts_sample_non_finite_params_exit_2_without_output(tmp_path, capsys, line):
    # cpu_logmu = nan once wrote three 128-CPU hosts, and gflops_floor = nan
    # a population; the other three failed in HostSpec with exit 1
    params = tmp_path / "bad.params"
    params.write_text(f"n_hosts = 3\n{line}\n")
    out = tmp_path / "pop.csv"
    assert main(["hosts", "sample", "--params", str(params), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {params}: {line.split()[0]} must be finite")
    assert not out.exists()


@pytest.mark.parametrize("line, keys", [
    ("gflops_mean = -100", ("gflops_mean", "gflops_sd", "gflops_floor")),
    ("ram_logmu = 800", ("ram_logmu", "ram_logsigma")),
], ids=["gflops_below_floor", "ram_overflow"])
def test_hosts_sample_undrawable_params_fail_naming_them(tmp_path, line, keys):
    # the sub-floor GFLOPs redraw once never ended, and an overflowing RAM draw
    # failed in HostSpec without naming a key; in a subprocess so a hang fails
    params = tmp_path / "bad.params"
    params.write_text(f"n_hosts = 3\n{line}\n")
    out = tmp_path / "pop.csv"
    done = subprocess.run([sys.executable, "-m", "gridsweep.cli", "hosts", "sample",
                           "--params", str(params), "--out", str(out)],
                          capture_output=True, text=True, env=package_env(), timeout=60)
    assert done.returncode != 0
    error = done.stderr.splitlines()[-1]
    assert error.startswith("error: ") and all(key in error for key in keys)
    assert not out.exists()


@pytest.mark.parametrize("row", ["0,2.5,1,8.0,100.0,0.0", "0,2.5,1,8.0,100.0,0.0,0.0,9"],
                         ids=["short", "extra"])
def test_hosts_summary_population_row_of_other_width_exits_2(tmp_path, capsys, row):
    # an 8-field row once passed, and a 6-field row failed with an IndexError
    pop = tmp_path / "pop.csv"
    ideal_pop_csv(pop, n_hosts=2)
    pop.write_text(pop.read_text() + row + "\r\n")
    out = tmp_path / "summary.csv"
    assert main(["hosts", "summary", "--pop", str(pop), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {pop}:4: expected 7 fields\n"
    assert not out.exists()


def repeated_id_pop_csv(path):
    """Three hosts, the third with the first's id 5: line 4 repeats line 2."""
    write_population_csv([HostSpec(id=k, gflops=2.514, n_cpus=1, ram_gb=8, hdd_gb=100)
                          for k in (5, 6, 5)], path)


def test_hosts_summary_repeated_host_id_exits_2(tmp_path, capsys):
    pop = tmp_path / "pop.csv"
    repeated_id_pop_csv(pop)
    out = tmp_path / "summary.csv"
    assert main(["hosts", "summary", "--pop", str(pop), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {pop}:4: host id 5 repeats line 2\n"
    assert not out.exists()


# --- sim -----------------------------------------------------------------


def test_sim_repeated_host_id_exits_2_without_outputs(tmp_path, capsys):
    # such a population once ran, its two hosts of id 5 in trace.csv as 0 and 2
    pop_csv = tmp_path / "pop.csv"
    repeated_id_pop_csv(pop_csv)
    scn = tmp_path / "one.scenario"
    one_task_scenario(scn, pop_csv)
    out = tmp_path / "sim"
    assert main(["sim", "run", "--scenario", str(scn), "--out-dir", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {pop_csv}:4: host id 5 repeats line 2\n"
    assert not out.exists()


def test_sim_trace_names_hosts_by_their_population_id(tmp_path):
    pop_csv = tmp_path / "pop.csv"
    write_population_csv([HostSpec(id=k, gflops=2.514, n_cpus=1, ram_gb=8, hdd_gb=100)
                          for k in (40, 7)], pop_csv)
    scn = tmp_path / "two.scenario"
    scn.write_text(f"[hosts]\ncsv = {pop_csv}\n\n[sim]\nseed = 0\n\n" + TASK_1)
    out = tmp_path / "sim"
    assert main(["sim", "run", "--scenario", str(scn), "--out-dir", str(out)]) == EXIT_OK
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    assert {row.rsplit(",", 1)[1] for row in rows} == {"40", "7"}


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


def test_sim_run_registered_fleet_matches_golden_bytes(tmp_path):
    scn = tmp_path / "registered.scenario"
    text = TABLE2.read_text()
    assert "preset = pool\n" in text
    scn.write_text(text.replace("preset = pool\n", "preset = registered\n"))
    out = tmp_path / "sim"
    assert main(["sim", "run", "--scenario", str(scn), "--out-dir", str(out)]) == EXIT_OK
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == REGISTERED_SIM_SHA256


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


def count_accounts_calls(monkeypatch):
    """Count calls of gridsim's one-pass trace accounting from here on."""
    calls = []
    accounts = gridsim._accounts

    def counted(trace):
        calls.append(trace)
        return accounts(trace)

    monkeypatch.setattr(gridsim, "_accounts", counted)
    return calls


def test_sim_run_accounts_its_trace_once(tmp_path, monkeypatch):
    calls = count_accounts_calls(monkeypatch)
    assert main(["sim", "run", "--scenario", str(TABLE2),
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    assert len(calls) == 1


def test_sweep_ledger_commit_accounts_its_trace_once(tmp_path, monkeypatch):
    calls = count_accounts_calls(monkeypatch)
    assert main(["sweep", "run", "--nx", "2", "--ny", "4", "--nz", "2",
                 "--strain-rate", "0.4", "--target-strain", "0.02",
                 "--n-realizations", "2", "--parallelism", "1",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    assert len(calls) == 1
    assert (tmp_path / "regimes.csv").exists()


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


TASK_1 = "[task.1]\nname = a\nt_job_ref_min = 30\nn_jobs = 9\n"
POOL = "[hosts]\npreset = pool\n\n"


@pytest.mark.parametrize("text,message", [
    (POOL + TASK_1 + "mdoe = dedicated\n", r"\[task.1\]: unknown key\(s\) \['mdoe'\]"),
    (POOL + "[sim]\nhorizon_day = 0.0001\n\n" + TASK_1, r"\[sim\]: unknown key"),
    ("[hosts]\npreset = pool\nsede = 3\n\n" + TASK_1, r"\[hosts\]: unknown key"),
    (POOL + "[simulation]\nseed = 1\n\n" + TASK_1, r"unknown section \[simulation\]"),
    (POOL + TASK_1.replace("task.1", "tasks.1"), r"unknown section \[tasks.1\]"),
    (POOL + TASK_1.replace("task.1", "task.one"), r"unknown section \[task.one\]"),
    ("[hosts]\nseed = 3\n\n" + TASK_1, r"exactly one of .*got \[\]"),
    ("[hosts]\npreset = pool\nparams = pool.params\n\n" + TASK_1,
     r"exactly one of .*got \['params', 'preset'\]"),
    ("[hosts]\ncsv = pop.csv\nseed = 3\n\n" + TASK_1, r"'seed' applies to"),
    (POOL + "[sim]\nhorizon_days = 400\n\n" + TASK_1, r"\[sim\]: unknown key"),
    (POOL + "[sim]\ndispatch_latency_s = 0\n\n" + TASK_1, r"\[sim\]: unknown key"),
    (POOL + "[sim]\nref_gflops = 2.514\n\n" + TASK_1, r"\[sim\]: unknown key"),
], ids=["task_key", "sim_key", "hosts_key", "section", "tasks_section", "task_suffix",
        "no_source", "two_sources", "seed_with_csv", "horizon_days", "dispatch_latency_s",
        "ref_gflops"])
def test_sim_strict_scenario_exits_2_without_outputs(tmp_path, capsys, text, message):
    scn = tmp_path / "bad.scenario"
    scn.write_text(text)
    out = tmp_path / "sim"
    assert main(["sim", "run", "--scenario", str(scn),
                 "--out-dir", str(out)]) == EXIT_USAGE
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("host_row,t_job_ref_min", [
    # every churn transition of this host lands at t = 0, so the run never
    # passes the horizon; in a subprocess so that a hang fails the test
    ("0,2.514,1,8.0,100.0,inf,inf", "30"),
    ("0,nan,1,8.0,100.0,0.0,0.0", "30"),
    ("0,2.514,1,8.0,100.0,0.0,0.0", "nan"),
], ids=["inf_rates", "nan_gflops", "nan_task_time"])
def test_sim_non_finite_input_exits_2_without_outputs(tmp_path, host_row, t_job_ref_min):
    pop_csv = tmp_path / "pop.csv"
    pop_csv.write_text("id,gflops,n_cpus,ram_gb,hdd_gb,on_rate,off_rate\n" + host_row + "\n")
    scn = tmp_path / "bad.scenario"
    scn.write_text(f"[hosts]\ncsv = {pop_csv}\n\n"
                   + TASK_1.replace("= 30", f"= {t_job_ref_min}"))
    out = tmp_path / "sim"
    done = subprocess.run([sys.executable, "-m", "gridsweep.cli", "sim", "run",
                           "--scenario", str(scn), "--out-dir", str(out)],
                          capture_output=True, text=True, env=package_env(), timeout=60)
    assert done.returncode == EXIT_USAGE, done.stderr
    assert done.stderr.startswith("error: ")
    assert not out.exists()


def test_rewritten_table2_scenario_parses(tmp_path):
    # perfbench's campaign workload writes its scenarios this way
    cp = configparser.ConfigParser()
    assert cp.read(TABLE2)
    cp["hosts"] = {"preset": "registered", "seed": "3"}
    cp["sim"] = {"seed": "3"}
    scn = tmp_path / "registered.scenario"
    with open(scn, "w") as fh:
        cp.write(fh)
    scenario = parse_scenario(scn)
    assert [t.name for t in scenario.tasks] == [cp[f"task.{k}"]["name"] for k in range(1, 9)]
    assert (scenario.seed, len(scenario.population)) == (3, 4161)


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


#: sha256 of every `analyze --n-resamples 199` output on the seeded ensemble of
#: write_pinned_ensemble, per observable, so any drift in the analysis chain
#: shows here.  Both cloud.csv were re-recorded when the moments became
#: products (values moved by <= 2.7e-15), and c_unk's qq_weibull.csv and
#: report.csv when the Weibull solver began keeping a Newton step that lands
#: on its bracket (k moved by 7.6e-11, to the exact root).  Both report.csv
#: were re-recorded when the asymptotic KS rows left them: each lost its two
#: `asymptotic` rows, and its `parametric_bootstrap` rows kept their bytes
PINNED_ANALYZE_SHA256 = {
    "c_unk": {
        "cloud.csv": "0d705d7814f782ce32205f6fbb71bfae6cbd3e310c7a89da9a3c09b444e4b160",
        "qq_normal.csv": "e7e5c1a731a76a85d0894cfc08722c529e6f106c1ce81d1a094229f3c35f1656",
        "qq_weibull.csv": "7313d63dc7ba7c269d7e1b7afa091f51625fa8c8857aead019aa97c139fc5efd",
        "report.csv": "d8ac52cea12476633b2ecc4c525259edd21293387426f601ee17de7437a8133d",
        "verdict.csv": "fdb4bd539047f98a1d94f6d0f99da5b1db7a90c6c8fb5a9077027cd4ecf8ad8b",
    },
    "sigma_top": {
        "cloud.csv": "46c1aca23331094a9f1c051ce7ef524c096c74d66763910b82719d0fdf33369b",
        "qq_normal.csv": "67f95ae799abda9b8971ded17e4c60fed0be5479f3e06ab133553d05f2bc1868",
        "qq_weibull.csv": "8bc628729e0ee2d8f714433653fdba7ac1608e1951ecb956637257f77d8a7c8b",
        "report.csv": "a244ced66f1e5350b18bebddf84fec313ec8cfbe14fa6ebc0b09503320d333d9",
        "verdict.csv": "726b6b5417a84df3fcf911ec87203e2c8df755cca1c3d1e0c7d534fd53f265ee",
    },
}


def write_pinned_ensemble(jobs_dir):
    """40 job files at strains 0 and 0.1; at 0.1 c_unk is Weibull and
    sigma_top normal, both strictly positive so both families get fitted."""
    jobs_dir.mkdir()
    rng = np.random.default_rng(2024)
    for job in range(40):
        unk = 0.2 * rng.weibull(1.5)
        hcp = 0.05 * rng.weibull(2.0)
        sigma = rng.normal(5.0, 0.5)
        write_records_csv([DefectRecord(0.0, 1.0, 0.0, 0.0, 0.0, -5.0),
                           DefectRecord(0.1, 1.0 - unk - hcp, hcp, unk, sigma, -4.9)],
                          job_csv_path(jobs_dir, job))


def test_analyze_outputs_match_pinned_bytes(tmp_path):
    write_pinned_ensemble(tmp_path / "jobs")
    for observable, digests in PINNED_ANALYZE_SHA256.items():
        out = tmp_path / observable
        assert main(["analyze", "--input-dir", str(tmp_path / "jobs"), "--strain", "0.1",
                     "--observable", observable, "--out-dir", str(out),
                     "--n-resamples", "199"]) == EXIT_OK
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out.iterdir()} == digests


def test_pinned_c_unk_weibull_fit_is_the_exact_newton_root(tmp_path):
    # the solver once rejected the Newton step onto its own bracket end and
    # stopped at k = 1.339521402846223, where g(k) = 7.1e-11
    write_pinned_ensemble(tmp_path / "jobs")
    v = sweep_mod.collect_observable(tmp_path / "jobs", 0.1, "c_unk")
    k = fit_weibull(v).params[0]
    assert k == 1.3395214027698374
    y = v[None, :] / v.max()
    g, _ = _weibull_profile(np.array([k]), y, np.log(y), np.log(y).mean(axis=1))
    assert g[0] == 0.0


def test_analyze_onto_a_directory_commits_no_output(tmp_path, capsys):
    # a directory in verdict.csv's place once failed the last rename, after
    # the other four outputs had been committed, and left verdict.csv.tmp
    write_pinned_ensemble(tmp_path / "jobs")
    out = tmp_path / "analysis"
    (out / "verdict.csv").mkdir(parents=True)
    code = main(["analyze", "--input-dir", str(tmp_path / "jobs"), "--strain", "0.1",
                 "--observable", "c_unk", "--out-dir", str(out), "--n-resamples", "19"])
    assert code == EXIT_RUNTIME
    assert "Is a directory" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["verdict.csv"]


def test_a_failed_rename_leaves_no_temporary_file(tmp_path, monkeypatch):
    replace = os.replace

    def failing(src, dst):
        if Path(dst).name == "b.csv":
            raise OSError("rename failed")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing)
    with pytest.raises(OSError, match="rename failed"), staged_outputs() as stage:
        for name in "abc":
            stage(tmp_path / f"{name}.csv").write_text(name)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"]


@pytest.mark.parametrize("row, problem", [
    ("0.1,1.0,0.0,0.0", "expected 6 fields"),
    ("0.1,1.0,0.0,0.0,5.0,-4.9,7.0", "expected 6 fields"),
    ("0.1,1.0,0.0,x,5.0,-4.9", "could not convert string to float: 'x'"),
], ids=["short", "extra", "non_numeric"])
def test_analyze_malformed_job_row_exits_1_naming_its_line(tmp_path, capsys, row, problem):
    write_pinned_ensemble(tmp_path / "jobs")
    bad = job_csv_path(tmp_path / "jobs", 7)
    lines = bad.read_text().splitlines()
    lines[2] = row  # the strain 0.1 checkpoint, line 3 of the file
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "analysis"
    code = main(["analyze", "--input-dir", str(tmp_path / "jobs"), "--strain", "0.1",
                 "--observable", "c_unk", "--out-dir", str(out)])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err == f"error: {bad}:3: {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("n_resamples", ["0", "-1", "-5"])
def test_analyze_non_positive_n_resamples_exits_1(tmp_path, capsys, n_resamples):
    write_pinned_ensemble(tmp_path / "jobs")
    out = tmp_path / "analysis"
    code = main(["analyze", "--input-dir", str(tmp_path / "jobs"), "--strain", "0.1",
                 "--observable", "c_unk", "--out-dir", str(out),
                 "--n-resamples", n_resamples])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("n_resamples", ["0", "-5"])
def test_analyze_non_positive_n_resamples_on_degenerate_ensemble_exits_1(
        tmp_path, capsys, n_resamples):
    for i in range(3):
        write_records_csv([DefectRecord(0.0, 1.0, 0.0, 0.0, 0.5, -1.0)],
                          job_csv_path(tmp_path, i))
    out = tmp_path / "analysis"
    code = main(["analyze", "--input-dir", str(tmp_path), "--strain", "0.0",
                 "--observable", "sigma_top", "--out-dir", str(out),
                 "--n-resamples", n_resamples])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("rate", ["-0.1", "0", "nan", "inf", "1000"])
def test_sweep_non_positive_strain_rate_exits_1(tmp_path, capsys, rate):
    out = tmp_path / "sweep"
    code = main(["sweep", "run", "--nx", "2", "--ny", "4", "--nz", "2",
                 "--strain-rate", rate, "--target-strain", "0.02",
                 "--n-realizations", "1", "--parallelism", "1", "--out-dir", str(out)])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(out.glob("job_*.csv"))


@pytest.mark.parametrize("geometry, message", [
    (["--nx", "1"], "nx, ny, nz must all be >= 2"),
    (["--nx", "2", "--ny", "2", "--nz", "2"], "grip layers would cover the whole crystal"),
], ids=["nx_1", "grips_cover_crystal"])
def test_sweep_impossible_geometry_exits_1_before_any_job(tmp_path, capsys, geometry,
                                                          message):
    out = tmp_path / "sweep"
    code = main(["sweep", "run", *geometry, "--target-strain", "0.01",
                 "--n-realizations", "3", "--parallelism", "1", "--out-dir", str(out)])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("target", ["0.005", "0.015", "0.025"])
def test_sweep_off_grid_target_strain_exits_1_before_any_job(tmp_path, capsys, target):
    # such a target once ran silently to a neighbouring checkpoint: rows up
    # to 0.02 for 0.015, to 0.02 for 0.025, and strain 0 alone for 0.005
    out = tmp_path / "sweep"
    code = main(["sweep", "run", "--nx", "2", "--ny", "4", "--nz", "2",
                 "--target-strain", target, "--n-realizations", "1", "--parallelism", "1",
                 "--out-dir", str(out)])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err == (
        f"error: target_strain {target} is not a multiple of the checkpoint strain 0.01\n")
    assert not out.exists()


def test_sweep_whose_every_job_fails_exits_1_with_its_ledger(tmp_path, capsys, monkeypatch):
    def blow_up(params, geometry, seed=0):
        raise BlowUpError("positions are no longer finite; dt too large?")

    monkeypatch.setattr(sweep_mod, "run_tensile", blow_up)
    out = tmp_path / "sweep"
    code = main(["sweep", "run", "--nx", "2", "--ny", "4", "--nz", "2",
                 "--target-strain", "0.01", "--n-realizations", "3", "--parallelism", "1",
                 "--out-dir", str(out)])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err == "all sweep jobs failed\n"
    with open(out / "ledger.csv", newline="") as f:
        ledger = list(csv.DictReader(f))
    assert [(row["job_id"], row["status"], row["error"]) for row in ledger] == [
        (str(k), "failed", "BlowUpError: positions are no longer finite; dt too large?")
        for k in range(3)]
    assert (out / "ledger_summary.csv").read_text().splitlines() == [
        "n_jobs,n_ok,n_failed", "3,0,3"]
    assert not list(out.glob("job_*.csv"))


#: run each argv through cli.main in turn, then print whether scipy.special
#: was loaded after each one
IMPORT_PROBE = """
import json, sys
from gridsweep.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded.append("scipy.special" in sys.modules)
print(json.dumps(loaded))
"""


def test_no_command_loads_scipy_special(tmp_path):
    # a fresh interpreter: the stats tests have already loaded scipy.special here
    sweep = str(tmp_path / "sweep")
    commands = [
        ["sweep", "run", "--nx", "2", "--ny", "4", "--nz", "2", "--target-strain", "0.01",
         "--n-realizations", "3", "--parallelism", "2", "--out-dir", sweep],
        ["sim", "run", "--scenario", str(TABLE2), "--out-dir", str(tmp_path / "sim")],
        ["hosts", "sample", "--preset", "registered", "--out", str(tmp_path / "pop.csv")],
        ["analyze", "--input-dir", sweep, "--strain", "0.01", "--observable", "sigma_top",
         "--out-dir", str(tmp_path / "analysis"), "--n-resamples", "99"],
    ]
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(commands)],
                          capture_output=True, text=True, env=package_env(), timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [False, False, False, False]
    assert (tmp_path / "analysis" / "verdict.csv").exists()


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
