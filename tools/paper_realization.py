"""One tensile realization of a paper-scale crystal, timed, as one JSON record.

Run from the repository root::

    python3 tools/paper_realization.py --geometry 32x32x32 --target-strain 0.01 \
        [--seed 0] [--into BENCH_<label>.json]

It runs `md.run_tensile` at the default `MDParams` but for ``--target-strain``
in this process, and prints the geometry, the atom and pair counts, the
integration steps (equilibration and strain), the wall time, the seconds per
step spent in `integrate`, the neighbour builds, the process's peak RSS
(``ru_maxrss``) and the records.  `md.integrate` and `md.neighbor_pairs` are
wrapped to time and count them during the run, and restored after it.  With
``--into`` the record is also added to that JSON file under
``realization_<geometry>``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gridsweep import md  # noqa: E402


def realization(geometry: tuple[int, int, int], target_strain: float, seed: int) -> dict:
    steps, integrate_s, builds, pairs = [], [], [], []
    integrate, search = md.integrate, md.neighbor_pairs

    def timed_integrate(crystal, params, n_steps, **kwargs):
        t0 = time.perf_counter()
        state = integrate(crystal, params, n_steps, **kwargs)
        steps.append(n_steps)
        integrate_s.append(time.perf_counter() - t0)
        pairs.append(int(state.i.size))
        return state

    def counting_search(*args):
        builds.append(1)
        return search(*args)

    params = md.MDParams(target_strain=target_strain)
    md.integrate, md.neighbor_pairs = timed_integrate, counting_search
    try:
        t0 = time.perf_counter()
        records = md.run_tensile(params, geometry, seed=seed)
        wall = time.perf_counter() - t0
    finally:
        md.integrate, md.neighbor_pairs = integrate, search
    n_steps = sum(steps)
    return {
        "geometry": list(geometry), "seed": seed, "params": asdict(params),
        "atoms": 4 * geometry[0] * geometry[1] * geometry[2],
        "skin_pairs": pairs[-1], "steps": n_steps, "neighbor_builds": len(builds),
        "wall_s": round(wall, 2), "s_per_step": round(sum(integrate_s) / n_steps, 5),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "records": [asdict(r) for r in records],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--geometry", default="32x32x32", help="NXxNYxNZ in unit cells")
    p.add_argument("--target-strain", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--into", type=Path, help="a JSON file to add the record to")
    args = p.parse_args(argv)
    geometry = tuple(int(x) for x in args.geometry.split("x"))
    record = realization(geometry, args.target_strain, args.seed)
    print(json.dumps(record))
    if args.into:
        data = json.loads(args.into.read_text()) if args.into.exists() else {}
        data[f"realization_{args.geometry}"] = record
        args.into.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
