"""Scenario files for the grid simulator.

INI-style plain text.  A ``[hosts]`` section points at exactly one of a
population CSV, a params file or a built-in preset (``registered`` /
``pool``; these two take an optional sampling ``seed``); ``[sim]`` sets the
simulation seed, and each ``[task.N]`` section declares one task.  Any other
section or key is an error, so a misspelt name cannot fall back to a
default::

    [hosts]
    preset = pool
    seed = 11

    [sim]
    seed = 42

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
from .gridsim import TaskSpec
from .hosts import HostSpec


#: the keys each kind of section may hold
_KEYS = {
    "hosts": {"csv", "params", "preset", "seed"},
    "sim": {"seed"},
    "task": {"name", "t_job_ref_min", "n_jobs", "mode"},
}


@dataclass
class Scenario:
    tasks: list[TaskSpec]
    population: list[HostSpec]
    seed: int


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

    task_sections = []
    for name in cp.sections():
        kind, dot, number = name.partition(".")
        if name in ("hosts", "sim") or ((kind, dot) == ("task", ".") and number.isdecimal()):
            unknown = sorted(set(cp[name]) - _KEYS[kind])
            if unknown:
                raise ScenarioParseError(f"{path}: [{name}]: unknown key(s) {unknown}")
            if kind == "task":
                task_sections.append((int(number), name))
        else:
            raise ScenarioParseError(f"{path}: unknown section [{name}]")

    if "hosts" not in cp:
        raise ScenarioParseError(f"{path}: missing [hosts] section")
    hosts_sec = cp["hosts"]
    sources = [key for key in ("csv", "params", "preset") if key in hosts_sec]
    if len(sources) != 1:
        raise ScenarioParseError(
            f"{path}: [hosts] needs exactly one of 'csv', 'params' or 'preset', got {sources}")
    if "csv" in hosts_sec:
        if "seed" in hosts_sec:
            raise ScenarioParseError(f"{path}: [hosts] 'seed' applies to 'params' or 'preset'")
        pop = hosts_mod.read_population_csv(path.parent / hosts_sec["csv"])
    else:
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
    if not pop:
        raise ScenarioParseError(f"{path}: empty host population")

    try:
        seed = cp.getint("sim", "seed", fallback=0)
    except ValueError as exc:
        raise ScenarioParseError(f"{path}: [sim]: {exc}") from exc

    if not task_sections:
        raise ScenarioParseError(f"{path}: no [task.N] sections")
    tasks = []
    for _, sec_name in sorted(task_sections):
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
    return Scenario(tasks=tasks, population=pop, seed=seed)
