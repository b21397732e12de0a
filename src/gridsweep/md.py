"""Desk-scale molecular dynamics tensile payload.

Reduced Lennard-Jones units (epsilon = sigma = mass = 1, kB = 1).  The
crystal is FCC, periodic laterally (x, z); along the tensile axis y the
outermost atomic planes form rigid grips that move apart at a prescribed
rate.  The pair potential is LJ truncated and shifted at the cutoff --
cheap enough for desk-scale ensembles while leaving the whole statistics
chain potential-agnostic.  One Verlet pair list (cutoff + skin) lasts a
whole realization: `integrate` hands it, with the last forces, to the next
call, and the energy checks and checkpoint observables take their pairs from
it.  The integrator computes forces only.  Its kernel skips the pairs with no
free atom, as LAMMPS's ``neigh_modify exclude`` does for a rigid group: their
forces land only on grip rows, which the integrator never applies.  The
energy and the observables use the whole list.

Pair separations are (3, m), one row per axis.  Every sum keeps the terms and
order of the (m, 3) kernel in tests/oracles.py, so trajectories match it bit
for bit: r2 adds (x^2 + z^2) + y^2, as numpy's einsum("ij,ij->i") does on
3-wide rows, and each force bin ax*n + atom sums its pair terms in list order.

The lattice constant is the 0 K equilibrium spacing of the
truncated-shifted potential (a ~ 1.5496, slightly tighter than the
isolated-pair value 2^(1/6) * sqrt(2) because of the attractive second and
third shells inside the cutoff).  A perfect lattice is force-free by
symmetry at any spacing, but only at the equilibrium spacing does an
unstrained gripped slab also transmit zero stress to its grips.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ParameterError

#: reduced lattice constant: the 0 K equilibrium spacing of the
#: truncated-shifted potential (cutoff 2.5), where a gripped slab carries no
#: stress.  Close to the nearest-neighbour pair minimum 2^(1/6)*sqrt(2); the
#: longer shells pull the lattice in by ~2.4%.  Physical anchor: 0.4049 nm
#: for aluminum.
A0_DEFAULT = 1.5496034240894725

#: LJ truncation radius and Verlet skin, in sigma
CUTOFF = 2.5
SKIN = 0.4
#: strain between two recorded checkpoints
CHECKPOINT_DSTRAIN = 0.01
#: equilibration steps between two velocity rescales
RESCALE_INTERVAL = 10
#: the truncated-shifted potential is U_LJ(r) - U_LJ(CUTOFF)
_SHIFT = 4.0 * ((1.0 / CUTOFF) ** 12 - (1.0 / CUTOFF) ** 6)


@dataclass
class MDParams:
    dt: float = 0.005
    temperature: float = 0.05
    strain_rate: float = 0.1  # lattice spacings per reduced time
    target_strain: float = 0.20
    equilibration_steps: int = 500

    def __post_init__(self):
        if self.dt <= 0:
            raise ParameterError("dt must be > 0")
        if self.strain_rate <= 0:
            raise ParameterError("strain_rate must be > 0")
        if not (0 <= self.target_strain <= 1):
            raise ParameterError("target_strain must lie in [0, 1]")
        if self.temperature < 0:
            raise ParameterError("temperature must be >= 0")


@dataclass
class Crystal:
    positions: np.ndarray  # (n, 3)
    velocities: np.ndarray  # (n, 3)
    box: np.ndarray  # (3,) lengths
    periodic: tuple[bool, bool, bool]
    grip_side: np.ndarray  # (n,) int8: -1 bottom grip, +1 top grip, 0 free

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    @property
    def grip_mask(self) -> np.ndarray:
        """(n,) bool; True = grip atom (rigidly driven)."""
        return self.grip_side != 0

    @property
    def free_mask(self) -> np.ndarray:
        return self.grip_side == 0

    def copy(self) -> "Crystal":
        return Crystal(self.positions.copy(), self.velocities.copy(), self.box.copy(),
                       self.periodic, self.grip_side.copy())


@dataclass(frozen=True)
class DefectRecord:
    strain: float
    c_fcc: float
    c_hcp: float
    c_unk: float
    sigma_top: float
    energy: float  # total (potential + kinetic) energy per atom


_FCC_BASIS = np.array([[0.0, 0.0, 0.0],
                       [0.0, 0.5, 0.5],
                       [0.5, 0.0, 0.5],
                       [0.5, 0.5, 0.0]])


def fcc_positions(nx: int, ny: int, nz: int, a: float = A0_DEFAULT) -> np.ndarray:
    """Positions of a 4*nx*ny*nz-atom FCC block with corner at the origin."""
    cells = np.stack(np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                                 indexing="ij"), axis=-1).reshape(-1, 3)
    pos = (cells[:, None, :] + _FCC_BASIS[None, :, :]).reshape(-1, 3) * a
    return pos


def build_crystal(nx: int, ny: int, nz: int, temperature: float = 0.0, seed: int = 0,
                  grip_planes: int = 3) -> Crystal:
    """FCC crystal of lattice constant A0_DEFAULT with Maxwell-Boltzmann
    velocities and zeroed net momentum.

    ``grip_planes`` atomic (y) planes at each end are marked as the bottom
    (-1) and top (+1) grips in ``grip_side`` and y becomes an open direction;
    ``grip_planes=0`` gives a fully periodic box (the NVE configuration).
    At CUTOFF the interaction reaches three (010) planes, so
    three grip planes fully screen the free region from the slab ends.
    """
    if min(nx, ny, nz) < 2:
        raise ParameterError("nx, ny, nz must all be >= 2")
    a = A0_DEFAULT
    n_planes = 2 * ny  # FCC (010) planes are a/2 apart
    if grip_planes < 0 or 2 * grip_planes >= n_planes:
        raise ParameterError("grip layers would cover the whole crystal")

    pos = fcc_positions(nx, ny, nz, a)
    n = pos.shape[0]
    box = np.array([nx * a, ny * a, nz * a], dtype=float)

    rng = np.random.default_rng(seed)
    if temperature > 0:
        vel = rng.normal(0.0, math.sqrt(temperature), size=(n, 3))
        vel -= vel.mean(axis=0)
    else:
        vel = np.zeros((n, 3))

    side = np.zeros(n, dtype=np.int8)
    periodic = (True, True, True)
    if grip_planes > 0:
        plane = np.rint(pos[:, 1] / (a / 2)).astype(int)
        side[plane < grip_planes] = -1
        side[plane >= n_planes - grip_planes] = 1
        free = side == 0
        vel[~free] = 0.0
        vel[free] -= vel[free].mean(axis=0)
        periodic = (True, False, True)
    return Crystal(pos, vel, box, periodic, side)


def _min_image_r2(delta: np.ndarray, box, periodic) -> np.ndarray:
    """Min-image the (3, m) separations ``delta`` in place, one axis row at a
    time, and return their squared lengths summed as (x^2 + z^2) + y^2."""
    for ax in range(3):
        if periodic[ax]:
            L = box[ax]
            delta[ax] -= L * np.rint(delta[ax] / L)
    dx, dy, dz = delta
    return dx * dx + dz * dz + dy * dy


#: cells are made this much wider than rmax so that rounding in the binning
#: can never put a pair closer than rmax two cells apart
_CELL_SLACK = 1.0 + 1e-9

#: the 27 cell shifts of a 3 x 3 x 3 block of cells
_STENCIL = np.array(list(itertools.product((-1, 0, 1), repeat=3)))


def neighbor_pairs(positions, box, periodic, rmax: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), i < j in row-major order, of the pairs whose
    min-image distance is below rmax.

    Cell list: atoms are binned into cells at least rmax wide (periodic axes
    span the box, open axes the extent of the atoms), and only atoms in
    neighbouring cells are candidates.  The candidates pass the same exact
    distance test as a dense all-pairs scan, so the result equals the dense
    upper-triangle pair list element for element.
    """
    pos = np.asarray(positions, dtype=float)
    n = pos.shape[0]
    if n < 2:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    box = np.asarray(box, dtype=float)
    per = np.asarray(periodic, dtype=bool)
    x = np.where(per, np.mod(pos, np.where(per, box, 1.0)), pos - pos.min(axis=0))
    extent = np.where(per, box, x.max(axis=0))
    m = np.maximum(extent // (rmax * _CELL_SLACK), 1).astype(np.intp)  # cells per axis
    c = np.minimum((x * (m / np.where(m > 1, extent, np.inf))).astype(np.intp), m - 1)
    cell = (c[:, 0] * m[1] + c[:, 1]) * m[2] + c[:, 2]

    # On a periodic axis shift s reaches the same cell as s + m: keep one
    # shift per distinct cell (m = 1: 0; m = 2: 0, 1) so no cell is listed twice.
    distinct = ~per | ((_STENCIL < m) & ((_STENCIL >= 0) | (m > 2)))
    nb = c[:, None, :] + _STENCIL[distinct.all(axis=1)]
    nb = np.where(per, nb % m, nb)
    near = (nb[:, :, 0] * m[1] + nb[:, :, 1]) * m[2] + nb[:, :, 2]
    # open axes end at the outermost cells; a pair of distinct cells is
    # visited once, from the lower cell id
    visit = ((nb >= 0) & (nb < m)).all(axis=2) & (near >= cell[:, None])
    owner, near = np.nonzero(visit)[0], near[visit]

    # every atom of every visited cell, in one pass
    order = np.argsort(cell, kind="stable")
    count = np.bincount(cell, minlength=int(m.prod()))
    k = count[near]
    a = np.repeat(owner, k)
    b = order[np.arange(a.size) + np.repeat(np.cumsum(count)[near] - np.cumsum(k), k)]
    keep = (cell[a] != cell[b]) | (a < b)  # within one cell, each pair once
    a, b = a[keep], b[keep]

    # r_a - r_b is exactly -(r_b - r_a), so the test matches the i < j scan
    delta = pos.T.take(a, axis=1) - pos.T.take(b, axis=1)
    close = _min_image_r2(delta, box, periodic) < rmax * rmax
    a, b = a[close], b[close]
    return np.divmod(np.sort(np.minimum(a, b) * n + np.maximum(a, b)), n)


def _cutoff_pairs(crystal: Crystal, pairs=None):
    """(i, j, delta = r_i - r_j min-imaged as (3, m), r2) of the pairs of the
    sorted list ``pairs``, or of a fresh search, inside the cutoff; BlowUpError
    if a listed pair is closer than 0.5 sigma.  On a skin list this gives
    exactly the arrays of a fresh search: the distance test is the same, and a
    subset of a list sorted by i*n + j keeps its order, so sums over it add the
    same terms in the same order (dropped pairs only add exact +-0.0 to force
    sums).  r2 sums x, z, y, as the (m, 3) oracle does (see the module doc)."""
    pos = crystal.positions
    if pairs is None:
        pairs = neighbor_pairs(pos, crystal.box, crystal.periodic, CUTOFF)
    i, j = pairs
    delta = pos.T.take(i, axis=1) - pos.T.take(j, axis=1)
    r2 = _min_image_r2(delta, crystal.box, crystal.periodic)
    if r2.size and r2.min() < 0.5 ** 2:
        raise BlowUpError(
            f"atom pair at r = {math.sqrt(r2.min()):.3g} < 0.5 sigma; dt too large?")
    inside = np.flatnonzero(r2 < CUTOFF * CUTOFF)
    return i.take(inside), j.take(inside), delta.take(inside, axis=1), r2.take(inside)


def _lj_coeff(r2: np.ndarray) -> np.ndarray:
    """Truncated-shifted LJ dU/dr * (1/r) per pair inside the cutoff."""
    inv_r6 = (1.0 / r2) ** 3
    return 24.0 * (2.0 * inv_r6**2 - inv_r6) / r2


def _potential_energy(r2: np.ndarray) -> float:
    """Truncated-shifted LJ energy summed over pairs inside the cutoff."""
    inv_r6 = (1.0 / r2) ** 3
    return float(np.sum(4.0 * (inv_r6**2 - inv_r6) - _SHIFT))


def _pair_forces(n: int, i, j, delta, r2) -> np.ndarray:
    """Forces (n, 3) from cutoff pairs: +f to i and -f to j, so momentum is
    conserved to round-off; one bincount per side over bins ax*n + atom."""
    fpair = (delta * _lj_coeff(r2)).ravel()
    bins = np.arange(0, 3 * n, n)[:, None]
    forces = (np.bincount((i + bins).ravel(), fpair, 3 * n)
              - np.bincount((j + bins).ravel(), fpair, 3 * n))
    return forces.reshape(3, n).T


def potential_energy(crystal: Crystal, pairs=None) -> float:
    """Truncated-shifted LJ energy of the sorted pair list ``pairs`` (one that
    holds every pair inside the cutoff, such as the integrator's skin list) or
    of a fresh search; BlowUpError as `_cutoff_pairs`."""
    return _potential_energy(_cutoff_pairs(crystal, pairs)[3])


def kinetic_energy(crystal: Crystal, free_only: bool = False) -> float:
    v = crystal.velocities[crystal.free_mask] if free_only else crystal.velocities
    return 0.5 * float(np.sum(v * v))


#: what one `integrate` call hands the next: the skin pair list (i, j), its
#: pairs with a free atom (fi, fj), the positions both were built at, and the
#: current forces.  The forces come from (fi, fj) alone.  Their grip rows lack
#: the grip-grip terms and only ever meet a zero kick, while a free atom's row
#: gets the same terms in the same order as from (i, j): a subset of a sorted
#: list keeps its order, and bincount adds in input order.  So trajectories
#: are bit for bit those of the whole list.  The energy is not carried: the
#: callers that read it sum it over (i, j) with `potential_energy`.
PairState = namedtuple("PairState", "i j fi fj ref_pos forces")


def _skin_lists(crystal: Crystal):
    """The skin list (i, j) and its pairs with a free atom (fi, fj)."""
    i, j = neighbor_pairs(crystal.positions, crystal.box, crystal.periodic, CUTOFF + SKIN)
    free = crystal.free_mask
    keep = free[i] | free[j]
    return i, j, i[keep], j[keep]


def integrate(crystal: Crystal, params: MDParams, n_steps: int,
              grip_speed: float = 0.0, state: PairState | None = None) -> PairState:
    """Velocity-Verlet in place, one force evaluation per step; returns the
    state to pass to the next call on this crystal.

    Grip atoms (if any) translate rigidly at +-grip_speed along y and ignore
    forces; the grip separation grows at twice ``grip_speed``.  The Verlet
    pair list holds the pairs within cutoff + skin until an atom has moved
    skin/2; given the last call's ``state`` (positions untouched since), list
    and forces carry over, so a run split into many calls rebuilds only when
    the skin test fires.  Each step's forces skip the pairs of two grip atoms
    (see `PairState`).  Raises BlowUpError once positions stop being finite.
    """
    dt = params.dt
    side = crystal.grip_side
    crystal.velocities[side > 0] = [0.0, grip_speed, 0.0]
    crystal.velocities[side < 0] = [0.0, -grip_speed, 0.0]
    kick = np.where(side != 0, 0.0, 0.5 * dt)[:, None]  # grips ignore forces
    per = np.asarray(crystal.periodic)
    if state is None:
        i, j, fi, fj = _skin_lists(crystal)
        state = PairState(i, j, fi, fj, crystal.positions.copy(),
                          _pair_forces(crystal.n_atoms, *_cutoff_pairs(crystal, (fi, fj))))
    i, j, fi, fj, ref_pos, forces = state
    for _ in range(n_steps):
        crystal.velocities += kick * forces
        crystal.positions += dt * crystal.velocities
        crystal.positions[:, per] %= crystal.box[per]
        moved = _min_image_r2((crystal.positions - ref_pos).T, crystal.box, per).max()
        if not moved <= (0.5 * SKIN) ** 2:
            if not math.isfinite(moved):
                raise BlowUpError("positions are no longer finite; dt too large?")
            i, j, fi, fj = _skin_lists(crystal)
            ref_pos = crystal.positions.copy()
        forces = _pair_forces(crystal.n_atoms, *_cutoff_pairs(crystal, (fi, fj)))
        crystal.velocities += kick * forces
    return PairState(i, j, fi, fj, ref_pos, forces)


#: total-energy drift per atom over one equilibration chunk (NVE: no rescale
#: inside it) that marks an unstable run; default spec ~6e-5, dt 0.02 ~7e-3
MAX_CHUNK_DRIFT = 0.1


def equilibrate(crystal: Crystal, params: MDParams) -> PairState:
    """Equilibration with periodic velocity rescaling to the target temperature;
    raises BlowUpError when a chunk between rescales drifts by more than
    MAX_CHUNK_DRIFT per atom.  Returns the state for the next `integrate`."""
    steps, interval = params.equilibration_steps, RESCALE_INTERVAL
    state = integrate(crystal, params, 0)
    potential = potential_energy(crystal, (state.i, state.j))
    for done in range(0, steps, interval):
        chunk = min(interval, steps - done)
        e0 = potential + kinetic_energy(crystal)
        state = integrate(crystal, params, chunk, state=state)
        potential = potential_energy(crystal, (state.i, state.j))
        drift = (potential + kinetic_energy(crystal) - e0) / crystal.n_atoms
        if not abs(drift) <= MAX_CHUNK_DRIFT:
            raise BlowUpError(f"energy drifted by {drift:.3g} per atom in {chunk} steps; "
                              "dt too large?")
        if params.temperature > 0:
            free = crystal.free_mask
            t_now = 2.0 * kinetic_energy(crystal, free_only=True) / (3 * int(free.sum()))
            if t_now > 0:
                crystal.velocities[free] *= math.sqrt(params.temperature / t_now)
    return state


def grip_separation(crystal: Crystal) -> float:
    """Distance between the mean y of the top and bottom grip layers."""
    side = crystal.grip_side
    if not side.any():
        raise ParameterError("crystal has no grip layers")
    y = crystal.positions[:, 1]
    return float(y[side > 0].mean() - y[side < 0].mean())


def grip_stress(crystal: Crystal, pairs=None) -> float:
    """Normal stress at the top grip, tension positive.

    Sum of y-forces exerted by free atoms on top-grip atoms, divided by the
    x-z cross-section; under tension the free bulk pulls the top grip
    inward (-y), so the sign is flipped to make tension positive.  ``pairs``
    is a sorted (i, j) list holding every pair inside the cutoff, such as the
    integrator's skin list; without it the pairs are searched here.
    """
    if not crystal.grip_side.any():
        raise ParameterError("crystal has no grip layers")
    top = crystal.grip_side > 0
    free = crystal.free_mask
    i, j, delta, r2 = _cutoff_pairs(crystal, pairs)
    f_y = _lj_coeff(r2) * delta[1]  # y-force of j on i
    # force of free j on top-grip i, then of free i on top-grip j
    f_y = np.concatenate([f_y[top[i] & free[j]], -f_y[top[j] & free[i]]])
    return -float(np.sum(f_y)) / float(crystal.box[0] * crystal.box[2])


def run_tensile(params: MDParams, geometry: tuple[int, int, int],
                seed: int = 0) -> list[DefectRecord]:
    """Equilibrate, then strain to target, emitting a record per checkpoint.

    Strain is the relative change of grip separation; records land on the
    exact checkpoint grid 0, d, 2d, ... target (d = CHECKPOINT_DSTRAIN,
    nearest integration step).
    """
    from .cna import cna_labels, defect_concentrations  # local import: cna imports md

    nx, ny, nz = geometry
    crystal = build_crystal(nx, ny, nz, temperature=params.temperature, seed=seed)
    state = equilibrate(crystal, params)
    l0 = grip_separation(crystal)
    cna_cutoff = 0.854 * A0_DEFAULT

    def record(strain: float) -> DefectRecord:
        # the cutoff pairs of the skin list give the energy, the stress and,
        # within 0.854 a < CUTOFF, the CNA shell
        i, j, _, r2 = _cutoff_pairs(crystal, (state.i, state.j))
        shell = r2 < cna_cutoff * cna_cutoff
        labels = cna_labels(crystal.positions, crystal.box, crystal.periodic, cna_cutoff,
                            (i[shell], j[shell]))
        energy = _potential_energy(r2) + kinetic_energy(crystal)
        return DefectRecord(strain, *defect_concentrations(labels, crystal.grip_mask),
                            sigma_top=grip_stress(crystal, (i, j)),
                            energy=energy / crystal.n_atoms)

    records = [record(0.0)]
    if params.target_strain == 0:
        return records

    grip_speed = 0.5 * params.strain_rate * A0_DEFAULT  # per grip; separation rate is 2x
    dl_per_step = 2.0 * grip_speed * params.dt
    n_checkpoints = int(round(params.target_strain / CHECKPOINT_DSTRAIN))
    steps_done = 0
    for k in range(1, n_checkpoints + 1):
        strain_k = k * CHECKPOINT_DSTRAIN
        steps_target = int(round(strain_k * l0 / dl_per_step))
        state = integrate(crystal, params, steps_target - steps_done,
                          grip_speed=grip_speed, state=state)
        steps_done = steps_target
        records.append(record(strain_k))
    return records
