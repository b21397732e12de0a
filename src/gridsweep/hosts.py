"""Synthetic volunteer-host populations.

Measured desktop-grid fleets show roughly normal per-host floating-point
performance (additive growth of clock rates) while core counts, RAM and
disk sizes are long-tailed and close to log-normal -- the fingerprint of
multiplicative (Gibrat) growth.  This module samples host populations with
those laws and summarizes them.

All sampling is seed-deterministic: the RNG state is derived from the
parameters only, never from hidden globals.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ParameterError, ScenarioParseError
from .outputs import read_csv, write_csv

#: Core counts actually observed on real hosts; sampled values snap to these.
CPU_STEPS = (1, 2, 4, 6, 8, 16, 32, 48, 64, 128)

#: redraws of sub-floor GFLOPs before ``sample_hosts`` rejects its parameters: a
#: floor that keeps a fraction q of draws leaves about n (1 - q)^1000 of n hosts
#: below it, so only q under about 1% fails (each preset needs one at seed 0)
GFLOPS_REDRAWS = 1000

_CPU_STEP_ARR = np.asarray(CPU_STEPS, dtype=float)
_CPU_MIDPOINTS = (_CPU_STEP_ARR[:-1] + _CPU_STEP_ARR[1:]) / 2.0


@dataclass(frozen=True)
class HostSpec:
    """One volunteer host: nominal resources plus its churn process rates.

    Rates are per hour: ``on_rate`` is the attach rate while detached,
    ``off_rate`` the detach rate while attached.  ``off_rate == 0`` means
    the host, once up, never leaves.
    """

    id: int
    gflops: float
    n_cpus: int
    ram_gb: float
    hdd_gb: float
    on_rate: float = 0.0
    off_rate: float = 0.0

    def __post_init__(self):
        if not (0 < self.gflops < math.inf and 0 < self.ram_gb < math.inf
                and 0 < self.hdd_gb < math.inf):
            raise ParameterError("gflops/ram_gb/hdd_gb must be finite and strictly positive")
        if self.n_cpus not in CPU_STEPS:
            raise ParameterError(f"n_cpus={self.n_cpus} not in {CPU_STEPS}")
        if not (0 <= self.on_rate < math.inf and 0 <= self.off_rate < math.inf):
            raise ParameterError("churn rates must be finite and >= 0")


@dataclass(frozen=True)
class PopulationParams:
    """Sampling parameters for a synthetic host population.

    The log-normal parameters are in log space (mean and sd of the
    underlying normal).  The field defaults are round placeholder values;
    the calibrated populations are :data:`PRESETS`, whose log-normal pairs a
    calibration search produced from published fleet averages.
    """

    n_hosts: int = 189
    gflops_mean: float = 2.3
    gflops_sd: float = 0.7
    gflops_floor: float = 0.1
    cpu_logmu: float = 1.0
    cpu_logsigma: float = 0.9
    ram_logmu: float = 1.5
    ram_logsigma: float = 1.0
    hdd_logmu: float = 4.9
    hdd_logsigma: float = 1.1
    on_rate: float = 0.0015
    off_rate: float = 0.0375
    seed: int = 0

    def __post_init__(self):
        if self.n_hosts < 0:
            raise ParameterError("n_hosts must be >= 0")
        # chained comparisons, so NaN and inf fail each bound
        for name in ("gflops_mean", "cpu_logmu", "ram_logmu", "hdd_logmu"):
            if not -math.inf < getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be finite")
        for name in ("gflops_sd", "cpu_logsigma", "ram_logsigma", "hdd_logsigma",
                     "on_rate", "off_rate"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be finite and >= 0")
        if not 0 < self.gflops_floor < math.inf:
            raise ParameterError("gflops_floor must be finite and > 0")


@dataclass(frozen=True)
class AttributeSummary:
    mean: float
    sd: float
    min: float
    max: float


@dataclass(frozen=True)
class PopulationSummary:
    """Per-attribute mean/sd/min/max (sd uses the divide-by-n convention)."""

    count: int
    attributes: dict[str, AttributeSummary]


SUMMARY_ATTRIBUTES = ("gflops", "n_cpus", "ram_gb", "hdd_gb")


def snap_cpus(values) -> np.ndarray:
    """Snap raw draws to the nearest entry of CPU_STEPS, ties toward the smaller."""
    values = np.asarray(values, dtype=float)
    idx = np.searchsorted(_CPU_MIDPOINTS, values, side="left")
    return _CPU_STEP_ARR[idx].astype(int)


def sample_hosts(params: PopulationParams) -> list[HostSpec]:
    """Draw a host population; bit-identical for identical params (incl. seed).

    GFLOPs are normal truncated below at ``gflops_floor`` (resampling the
    sub-floor tail); core counts are log-normal snapped to CPU_STEPS;
    RAM/HDD are plain log-normal.  Parameters these draws fail on raise
    ParameterError naming their keys.
    """
    rng = np.random.default_rng(params.seed)
    n = params.n_hosts

    gflops = rng.normal(params.gflops_mean, params.gflops_sd, size=n)
    for _ in range(GFLOPS_REDRAWS):
        bad = gflops < params.gflops_floor
        if not bad.any():
            break
        gflops[bad] = rng.normal(params.gflops_mean, params.gflops_sd, size=int(bad.sum()))
    if np.any(gflops < params.gflops_floor):
        raise ParameterError("gflops_mean, gflops_sd and gflops_floor leave GFLOPs below "
                             f"the floor after {GFLOPS_REDRAWS} redraws")

    cpus = snap_cpus(rng.lognormal(params.cpu_logmu, params.cpu_logsigma, size=n))
    ram = rng.lognormal(params.ram_logmu, params.ram_logsigma, size=n)
    hdd = rng.lognormal(params.hdd_logmu, params.hdd_logsigma, size=n)
    for name, values in (("ram", ram), ("hdd", hdd)):
        if not np.all((0 < values) & (values < math.inf)):  # exp over- or underflowed
            raise ParameterError(f"{name}_logmu and {name}_logsigma draw sizes that are "
                                 "not finite and > 0")

    return [
        HostSpec(
            id=i,
            gflops=float(gflops[i]),
            n_cpus=int(cpus[i]),
            ram_gb=float(ram[i]),
            hdd_gb=float(hdd[i]),
            on_rate=params.on_rate,
            off_rate=params.off_rate,
        )
        for i in range(n)
    ]


def population_summary(hosts: list[HostSpec]) -> PopulationSummary:
    """Sample mean/sd/min/max per attribute (population variance: divide by n)."""
    attrs: dict[str, AttributeSummary] = {}
    for name in SUMMARY_ATTRIBUTES:
        if not hosts:
            attrs[name] = AttributeSummary(math.nan, math.nan, math.nan, math.nan)
            continue
        v = np.asarray([getattr(h, name) for h in hosts], dtype=float)
        attrs[name] = AttributeSummary(
            mean=float(v.mean()),
            sd=float(v.std()),  # ddof=0
            min=float(v.min()),
            max=float(v.max()),
        )
    return PopulationSummary(count=len(hosts), attributes=attrs)


#: the built-in populations by name (``hosts sample --preset``, scenario
#: ``preset =``).  The log-normal (logmu, logsigma) pairs are frozen outputs of
#: the search ``calibrate_lognormal`` in tests/oracles.py for the fleet
#: averages in the comments (CPU counts with ``snap=True``); tests/test_hosts.py
#: re-runs the search against them.
PRESETS = {
    # the full registered fleet: GFLOPs 2.25+-0.76, CPUs 4.30+-4.95,
    # RAM 6.68+-12.15 GB, HDD 257+-371 GB
    "registered": PopulationParams(
        n_hosts=4161, gflops_mean=2.25, gflops_sd=0.76,
        cpu_logmu=1.072828, cpu_logsigma=0.896361,
        ram_logmu=1.193851, ram_logsigma=1.184914,
        hdd_logmu=4.998475, hdd_logsigma=1.047338),
    # the worker pool that actually ran jobs: GFLOPs 2.3+-0.7, CPUs 6.7+-10,
    # RAM 16+-22 GB, HDD 210+-320 GB.  The GFLOPs floor is 0.8: slower hosts
    # never get through application screening, so the pool has none.
    "pool": PopulationParams(
        n_hosts=189, gflops_mean=2.3, gflops_sd=0.7, gflops_floor=0.8,
        cpu_logmu=1.298172, cpu_logsigma=1.124145,
        ram_logmu=2.250186, ram_logsigma=1.019167,
        hdd_logmu=4.760714, hdd_logsigma=1.080425),
}


# --- external interfaces -------------------------------------------------

POPULATION_CSV_HEADER = ["id", "gflops", "n_cpus", "ram_gb", "hdd_gb", "on_rate", "off_rate"]


def write_population_csv(hosts: list[HostSpec], path) -> None:
    write_csv(path, POPULATION_CSV_HEADER, map(astuple, hosts))


def read_population_csv(path) -> list[HostSpec]:
    hosts, lines = [], {}  # the line of each host id
    for line, row in read_csv(path, POPULATION_CSV_HEADER, ScenarioParseError):
        try:
            host = HostSpec(
                id=int(row[0]),
                gflops=float(row[1]),
                n_cpus=int(row[2]),
                ram_gb=float(row[3]),
                hdd_gb=float(row[4]),
                on_rate=float(row[5]),
                off_rate=float(row[6]),
            )
        except ValueError as exc:  # HostSpec's ParameterError is a ValueError
            raise ScenarioParseError(f"{path}:{line}: {exc}") from exc
        if host.id in lines:
            raise ScenarioParseError(
                f"{path}:{line}: host id {host.id} repeats line {lines[host.id]}")
        lines[host.id] = line
        hosts.append(host)
    return hosts


def read_params_file(path) -> PopulationParams:
    """Parse a plain key=value config file into PopulationParams."""
    path = Path(path)
    known = {f.name: f.type for f in fields(PopulationParams)}
    kwargs = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioParseError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ScenarioParseError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if key in ("n_hosts", "seed"):
                kwargs[key] = int(value)
            else:
                kwargs[key] = float(value)
        except ValueError as exc:
            raise ScenarioParseError(f"{path}:{lineno}: {exc}") from exc
    try:
        return PopulationParams(**kwargs)
    except ParameterError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc
