"""The ``gridsweep`` command line tool.

Commands::

    gridsweep hosts sample   --out pop.csv [--params file | --preset name] [--n N] [--seed S]
    gridsweep hosts summary  --pop pop.csv [--out summary.csv]
    gridsweep sim run        --scenario table2.scenario --out-dir DIR
    gridsweep sweep run      --out-dir DIR [geometry/seed flags]
    gridsweep analyze        --input-dir DIR --strain E --observable c_unk --out-dir DIR

Exit codes: 0 ok, 1 runtime failure, 2 usage or parse error.  Output files
are written via temp-and-rename so a failing command leaves no partial
CSVs behind.  All formats are documented in FORMATS.md.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import gridsim, hosts, scenario as scenario_mod, sweep as sweep_mod
from .errors import GridsweepError, ScenarioParseError
from .md import MDParams
from .outputs import staged_outputs, write_csv

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

SUMMARY_CSV_HEADER = ["attribute", "mean", "sd", "min", "max", "count"]


def _cmd_hosts_sample(args) -> int:
    params = hosts.read_params_file(args.params) if args.params else hosts.PRESETS[args.preset]
    if args.n is not None:
        params = replace(params, n_hosts=args.n)
    if args.seed is not None:
        params = replace(params, seed=args.seed)
    pop = hosts.sample_hosts(params)
    with staged_outputs() as stage:
        hosts.write_population_csv(pop, stage(args.out))
    return EXIT_OK


def _cmd_hosts_summary(args) -> int:
    summary = hosts.population_summary(hosts.read_population_csv(args.pop))
    rows = [[name, repr(a.mean), repr(a.sd), repr(a.min), repr(a.max), summary.count]
            for name, a in summary.attributes.items()]
    if args.out:
        with staged_outputs() as stage:
            write_csv(stage(args.out), SUMMARY_CSV_HEADER, rows)
    else:
        w = csv.writer(sys.stdout)
        w.writerow(SUMMARY_CSV_HEADER)
        w.writerows(rows)
    return EXIT_OK


def _cmd_sim_run(args) -> int:
    scn = scenario_mod.parse_scenario(args.scenario)
    trace = gridsim.run_scenario(scn.tasks, scn.population, seed=scn.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with staged_outputs() as stage:
        gridsim.write_trace_csvs(trace, stage, out)
    return EXIT_OK


def _cmd_sweep_run(args) -> int:
    md = MDParams(strain_rate=args.strain_rate, target_strain=args.target_strain)
    spec = sweep_mod.SweepSpec(
        nx=args.nx, ny=args.ny, nz=args.nz,
        n_realizations=args.n_realizations, base_seed=args.base_seed,
        parallelism=args.parallelism, output_dir=args.out_dir, md=md)
    ledger = sweep_mod.sweep_run(spec)
    if all(j.status == "failed" for j in ledger.jobs):
        print("all sweep jobs failed", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_analyze(args) -> int:
    res = sweep_mod.analyze_ensemble(args.input_dir, args.strain, args.observable,
                                     args.out_dir, seed=args.seed,
                                     n_resamples=args.n_resamples)
    print(f"verdict: {res.verdict}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gridsweep",
                                description="desktop-grid parameter-sweep toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    hp = sub.add_parser("hosts", help="host population tools")
    hsub = hp.add_subparsers(dest="subcommand", required=True)
    hs = hsub.add_parser("sample", help="sample a synthetic population to CSV")
    hs.add_argument("--params", help="key=value population params file")
    hs.add_argument("--preset", choices=list(hosts.PRESETS), default="pool")
    hs.add_argument("--n", type=int, help="override n_hosts")
    hs.add_argument("--seed", type=int, help="override RNG seed")
    hs.add_argument("--out", required=True)
    hs.set_defaults(func=_cmd_hosts_sample)
    hy = hsub.add_parser("summary", help="summarize a population CSV")
    hy.add_argument("--pop", required=True)
    hy.add_argument("--out", help="write CSV here instead of stdout")
    hy.set_defaults(func=_cmd_hosts_summary)

    sp = sub.add_parser("sim", help="grid simulator")
    ssub = sp.add_subparsers(dest="subcommand", required=True)
    sr = ssub.add_parser("run", help="run a scenario file")
    sr.add_argument("--scenario", required=True)
    sr.add_argument("--out-dir", required=True)
    sr.set_defaults(func=_cmd_sim_run)

    wp = sub.add_parser("sweep", help="local MD ensemble sweeps")
    wsub = wp.add_subparsers(dest="subcommand", required=True)
    wr = wsub.add_parser("run", help="run a tensile sweep on the local pool")
    spec = sweep_mod.SweepSpec()  # every flag but --parallelism defaults to the spec's
    wr.add_argument("--nx", type=int, default=spec.nx)
    wr.add_argument("--ny", type=int, default=spec.ny)
    wr.add_argument("--nz", type=int, default=spec.nz)
    wr.add_argument("--strain-rate", type=float, default=spec.md.strain_rate)
    wr.add_argument("--target-strain", type=float, default=spec.md.target_strain)
    wr.add_argument("--n-realizations", type=int, default=spec.n_realizations)
    wr.add_argument("--base-seed", type=int, default=spec.base_seed)
    wr.add_argument("--parallelism", type=int, default=os.cpu_count() or 1)
    wr.add_argument("--out-dir", required=True)
    wr.set_defaults(func=_cmd_sweep_run)

    ap = sub.add_parser("analyze", help="ensemble statistics on sweep output")
    ap.add_argument("--input-dir", required=True)
    ap.add_argument("--strain", type=float, required=True)
    ap.add_argument("--observable", choices=sweep_mod.OBSERVABLES, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-resamples", type=int, default=999)
    ap.set_defaults(func=_cmd_analyze)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GridsweepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
