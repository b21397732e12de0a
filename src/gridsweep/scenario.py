"""Scenario files for the grid simulator.

INI-style plain text.  A ``[hosts]`` section points at a population CSV,
at a params file, or at a built-in preset (``registered`` / ``pool``,
with an optional sampling ``seed``); ``[sim]`` sets the seed and policy,
and each ``[task.N]`` section declares one task::

    [hosts]
    preset = pool
    seed = 11

    [sim]
    seed = 42
    horizon_days = 400

    [task.1]
    name = S=16x16x16,V=1
    t_job_ref_min = 15
    n_jobs = 210
    mode = shared
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from pathlib import Path

from . import hosts as hosts_mod
from .errors import ScenarioParseError
from .gridsim import ReferenceHost, SimPolicy, TaskSpec, SECONDS_PER_DAY
from .hosts import HostSpec


@dataclass
class Scenario:
    tasks: list[TaskSpec]
    population: list[HostSpec]
    seed: int
    policy: SimPolicy
    ref: ReferenceHost


def parse_scenario(path) -> Scenario:
    path = Path(path)
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh, source=str(path))
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario {path}: {exc}") from exc
    except configparser.Error as exc:
        # configparser errors carry line numbers in their message
        raise ScenarioParseError(f"{path}: {exc}") from exc

    if "hosts" not in cp:
        raise ScenarioParseError(f"{path}: missing [hosts] section")
    hosts_sec = cp["hosts"]
    if "csv" in hosts_sec:
        pop = hosts_mod.read_population_csv(path.parent / hosts_sec["csv"])
    elif "params" in hosts_sec or "preset" in hosts_sec:
        if "params" in hosts_sec:
            params = hosts_mod.read_params_file(path.parent / hosts_sec["params"])
        else:
            preset = hosts_sec["preset"]
            if preset not in hosts_mod.PRESETS:
                raise ScenarioParseError(
                    f"{path}: [hosts] preset must be one of {sorted(hosts_mod.PRESETS)}, "
                    f"got {preset!r}")
            params = hosts_mod.PRESETS[preset]
        try:
            if "seed" in hosts_sec:
                params = replace(params, seed=int(hosts_sec["seed"]))
        except ValueError as exc:
            raise ScenarioParseError(f"{path}: [hosts]: {exc}") from exc
        pop = hosts_mod.sample_hosts(params)
    else:
        raise ScenarioParseError(
            f"{path}: [hosts] needs a 'csv', 'params' or 'preset' key")
    if not pop:
        raise ScenarioParseError(f"{path}: empty host population")

    sim = cp["sim"] if "sim" in cp else {}
    try:
        seed = int(sim.get("seed", "0"))
        policy = SimPolicy(
            dispatch_latency_s=float(sim.get("dispatch_latency_s", "0")),
            horizon_s=float(sim.get("horizon_days", "400")) * SECONDS_PER_DAY,
        )
        ref = ReferenceHost(gflops=float(sim.get("ref_gflops", "2.514")))
    except ValueError as exc:
        raise ScenarioParseError(f"{path}: [sim]: {exc}") from exc

    def task_order(name: str):
        suffix = name.partition(".")[2]
        return (0, int(suffix)) if suffix.isdigit() else (1, name)

    tasks = []
    task_sections = sorted((s for s in cp.sections() if s.startswith("task")),
                           key=task_order)
    if not task_sections:
        raise ScenarioParseError(f"{path}: no [task.N] sections")
    for sec_name in task_sections:
        sec = cp[sec_name]
        try:
            tasks.append(
                TaskSpec(
                    name=sec["name"],
                    t_job_ref_s=float(sec["t_job_ref_min"]) * 60.0,
                    n_jobs=int(sec["n_jobs"]),
                    mode=sec.get("mode", "shared"),
                )
            )
        except (KeyError, ValueError) as exc:  # ParameterError is a ValueError
            raise ScenarioParseError(f"{path}: [{sec_name}]: {exc}") from exc
    return Scenario(tasks=tasks, population=pop, seed=seed, policy=policy, ref=ref)
