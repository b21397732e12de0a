"""Top-level acceptance checks; each test prints one pass/fail line."""

import math
import shutil
import time
from pathlib import Path

import numpy as np
import pytest
from oracles import cutoff_list, hcp_positions, segment_regimes

from gridsweep.cli import EXIT_OK, main
from gridsweep.cna import FCC, HCP, cna_labels
from gridsweep.gridsim import (
    REF_GFLOPS,
    TaskSpec,
    run_scenario,
    speedup_table,
)
from gridsweep.hosts import PRESETS, HostSpec, sample_hosts
from gridsweep.md import (
    DefectRecord,
    MDParams,
    build_crystal,
    fcc_positions,
    integrate,
    kinetic_energy,
    neighbor_pairs,
    potential_energy,
)
from gridsweep.scenario import parse_scenario
from gridsweep.stats import (
    bootstrap_cloud,
    fit_weibull,
    ks_statistic,
    moment_summary,
)
from gridsweep.sweep import (
    SweepSpec,
    analyze_ensemble,
    job_csv_path,
    read_records_csv,
    sweep_run,
    write_records_csv,
)

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "table2.scenario"


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def ideal_pop(n):
    return [HostSpec(id=i, gflops=REF_GFLOPS, n_cpus=1,
                     ram_gb=8, hdd_gb=100, on_rate=0.0, off_rate=0.0)
            for i in range(n)]


def cna_labels_within(pos, box, periodic, cutoff):
    return cna_labels(pos, neighbor_pairs(pos, box, periodic, cutoff))


def test_criterion_1_host_calibration():
    t0 = time.perf_counter()
    params = PRESETS["registered"]
    pop = sample_hosts(params)
    g = np.array([h.gflops for h in pop])
    cpu_mean = float(np.mean([h.n_cpus for h in pop]))
    dt = time.perf_counter() - t0
    ok = (len(pop) == 4161
          and abs(g.mean() - 2.25) < 0.05
          and abs(g.std() - 0.76) < 0.05
          and abs(cpu_mean - 4.30) < 0.15 * 4.30
          and dt < 5.0)
    report(1, ok, f"gflops {g.mean():.3f}/{g.std():.3f}, "
                  f"cpu mean {cpu_mean:.2f}, {dt:.1f} s")


def test_criterion_2_lognormal_signature():
    t0 = time.perf_counter()
    params = PRESETS["registered"]
    rng = np.random.default_rng(params.seed)
    skews = []
    for logmu, logsigma in ((params.cpu_logmu, params.cpu_logsigma),
                            (params.ram_logmu, params.ram_logsigma),
                            (params.hdd_logmu, params.hdd_logsigma)):
        logs = np.log(rng.lognormal(logmu, logsigma, size=10_000))
        c = logs - logs.mean()
        skews.append(float(np.mean(c**3) / np.mean(c**2) ** 1.5))
    dt = time.perf_counter() - t0
    ok = all(abs(s) < 0.1 for s in skews) and dt < 5.0
    report(2, ok, "log-skew " + "/".join(f"{s:+.3f}" for s in skews)
                  + f", {dt:.1f} s")


def test_criterion_3_pool_scenario_properties():
    t0 = time.perf_counter()
    scn = parse_scenario(SCENARIO)
    trace = run_scenario(scn.tasks, scn.population, seed=scn.seed)
    shared = [t.name for t in scn.tasks if t.mode == "shared"]
    dedicated = [t.name for t in scn.tasks if t.mode == "dedicated"]
    sp = {r.name: r.speedup for r in speedup_table(trace)}
    total = sp["TOTAL"]
    a = all(sp[d] > max(sp[s] for s in shared) for d in dedicated)
    b = 20.0 <= total <= 60.0
    c = True
    for t in scn.tasks:
        seg = segment_regimes(trace, t.name)
        c = c and not seg.degenerate
        c = c and seg.rate_active > seg.rate_initial
        c = c and seg.rate_active > seg.rate_final
    dt = time.perf_counter() - t0
    ok = len(scn.population) == 189 and a and b and c and dt < 60.0
    report(3, ok, f"(a)={a} (b) total={total:.1f} (c)={c}, {dt:.1f} s")


def test_criterion_4_ideal_speedup():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 33):
        trace = run_scenario([TaskSpec("t", 3600.0, n)], ideal_pop(n))
        worst = max(worst, abs(speedup_table(trace)[0].speedup - n))
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and dt < 5.0
    report(4, ok, f"max |speedup - N| = {worst:.2e} over N=1..32, {dt:.1f} s")


def test_criterion_5_nve_conservation():
    t0 = time.perf_counter()
    params = MDParams(dt=0.005)
    crystal = build_crystal(4, 4, 4, temperature=0.05, seed=0, grip_planes=0)
    e0 = potential_energy(crystal, cutoff_list(crystal)) + kinetic_energy(crystal)
    integrate(crystal, params, 1000)
    e1 = potential_energy(crystal, cutoff_list(crystal)) + kinetic_energy(crystal)
    rel = abs((e1 - e0) / e0)
    drift = float(np.linalg.norm(crystal.velocities.sum(axis=0)))
    dt = time.perf_counter() - t0
    ok = rel < 1e-4 and drift < 1e-10 and dt < 30.0
    report(5, ok, f"|dE/E0| = {rel:.2e}, |P| = {drift:.2e}, {dt:.1f} s")


def test_criterion_6_cna_correctness():
    t0 = time.perf_counter()
    fcc = fcc_positions(4, 4, 4, 1.0)
    fcc_ok = (cna_labels_within(fcc, np.array([4.0] * 3), (True,) * 3, 0.854)
              == FCC).all()

    hcp, box = hcp_positions(4, 3, 3)
    hcp_ok = (cna_labels_within(hcp, box, (True,) * 3,
                                0.854 * math.sqrt(2.0)) == HCP).all()

    from scipy.spatial.transform import Rotation
    cluster = fcc_positions(4, 4, 4, 1.0)
    free_box = np.array([100.0] * 3)
    ref = cna_labels_within(cluster, free_box, (False,) * 3, 0.854)
    rot_ok = all(
        np.array_equal(
            cna_labels_within(cluster @ r.as_matrix().T, free_box, (False,) * 3, 0.854),
            ref)
        for r in Rotation.random(10, rng=np.random.default_rng(0)))
    dt = time.perf_counter() - t0
    ok = fcc_ok and hcp_ok and rot_ok and dt < 10.0
    report(6, ok, f"fcc={bool(fcc_ok)} hcp={bool(hcp_ok)} "
                  f"rotations={rot_ok}, {dt:.1f} s")


def test_criterion_7_statistics():
    t0 = time.perf_counter()
    shape_ok = True
    for k_true in (1.0, 2.0, 4.0):
        rng = np.random.default_rng(int(10 * k_true))
        k_hat = fit_weibull(2.0 * rng.weibull(k_true, 10_000)).params[0]
        shape_ok = shape_ok and abs(k_hat - k_true) / k_true < 0.05

    rng = np.random.default_rng(77)
    values = np.sort(rng.normal(0.3, 1.4, 200))
    from gridsweep.stats import fit_normal
    fit = fit_normal(values)
    grid = np.linspace(values[0] - 1.0, values[-1] + 1.0, 1_000_000)
    xs = np.concatenate([grid, values, values - 1e-9])
    ecdf = np.searchsorted(values, xs, side="right") / values.size
    d_grid = float(np.max(np.abs(ecdf - fit.cdf(xs))))
    ks_ok = abs(ks_statistic(values, fit) - d_grid) < 1e-9

    cloud = bootstrap_cloud(rng.weibull(2.0, 300), 2000, seed=5)
    cloud_ok = bool((cloud[:, 1] >= cloud[:, 0] + 1.0).all())

    m = moment_summary(np.random.default_rng(2).normal(size=100_000))
    moment_ok = math.hypot(m.beta1, m.beta2 - 3.0) < 0.15
    dt = time.perf_counter() - t0
    ok = shape_ok and ks_ok and cloud_ok and moment_ok and dt < 60.0
    report(7, ok, f"shapes={shape_ok} ks={ks_ok} cloud={cloud_ok} "
                  f"moments={moment_ok}, {dt:.1f} s")


def inject_ensemble(path, values):
    path.mkdir(parents=True, exist_ok=True)
    for i, v in enumerate(values):
        records = [DefectRecord(0.0, 1.0, 0.0, 0.0, 0.0, -1.0),
                   DefectRecord(0.02, 1.0 - v, 0.0, float(v), 0.0, -1.0)]
        write_records_csv(records, job_csv_path(path, i))


def test_criterion_8_end_to_end(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "sweep"
    spec = SweepSpec(output_dir=str(out))
    ledger = sweep_run(spec)
    n_ok = sum(1 for j in ledger.jobs if j.status == "ok")
    last = read_records_csv(job_csv_path(out, 0))[-1]
    sweep_ok = n_ok == 100 and last[0] == pytest.approx(0.20)  # column 0: strain

    correct = 0
    for rep in range(40):
        rng = np.random.default_rng(1000 + rep)
        if rep % 2 == 0:
            values, expected = 0.2 * rng.weibull(1.0, 583), "weibull"
        else:
            values, expected = np.abs(rng.normal(5.0, 0.5, 583)), "normal"
        rep_dir = tmp_path / f"rep_{rep:02d}"
        inject_ensemble(rep_dir, values)
        res = analyze_ensemble(rep_dir, 0.02, "c_unk", rep_dir / "analysis",
                               seed=rep, n_resamples=199)
        correct += res.verdict == expected
        shutil.rmtree(rep_dir)
    dt = time.perf_counter() - t0
    ok = sweep_ok and correct >= 38 and dt < 1800.0
    report(8, ok, f"sweep {n_ok}/100 ok, verdicts {correct}/40, {dt:.0f} s")


def test_criterion_9_determinism(tmp_path):
    checks = []

    pops = [tmp_path / f"pop{i}.csv" for i in (0, 1)]
    for p in pops:
        assert main(["hosts", "sample", "--preset", "registered",
                     "--seed", "1", "--out", str(p)]) == EXIT_OK
    checks.append(pops[0].read_bytes() == pops[1].read_bytes())

    scn = tmp_path / "small.scenario"
    scn.write_text(
        f"[hosts]\npreset = pool\nseed = 2\n\n[sim]\nseed = 3\n\n"
        "[task.1]\nname = a\nt_job_ref_min = 30\nn_jobs = 40\nmode = shared\n")
    sims = [tmp_path / f"sim{i}" for i in (0, 1)]
    for out in sims:
        assert main(["sim", "run", "--scenario", str(scn),
                     "--out-dir", str(out)]) == EXIT_OK
    checks.append(all(
        (sims[0] / name).read_bytes() == (sims[1] / name).read_bytes()
        for name in ("trace.csv", "speedup.csv", "regimes.csv")))

    sweeps = [tmp_path / f"sweep{i}" for i in (0, 1)]
    for out in sweeps:
        assert main(["sweep", "run", "--nx", "2", "--ny", "4", "--nz", "2",
                     "--strain-rate", "0.4", "--target-strain", "0.02",
                     "--n-realizations", "2", "--parallelism", "1",
                     "--out-dir", str(out)]) == EXIT_OK
    checks.append(all(  # job CSVs only: the ledger carries wall-time columns
        job_csv_path(sweeps[0], i).read_bytes()
        == job_csv_path(sweeps[1], i).read_bytes() for i in range(2)))

    analyses = [tmp_path / f"an{i}" for i in (0, 1)]
    for out in analyses:
        assert main(["analyze", "--input-dir", str(sweeps[0]),
                     "--strain", "0.02", "--observable", "sigma_top",
                     "--out-dir", str(out), "--seed", "4",
                     "--n-resamples", "99"]) == EXIT_OK
    checks.append(all(
        (analyses[0] / name).read_bytes() == (analyses[1] / name).read_bytes()
        for name in ("report.csv", "cloud.csv", "verdict.csv")))

    report(9, all(checks),
           "hosts/sim/sweep/analyze byte-identical = "
           + "/".join(str(c) for c in checks))
