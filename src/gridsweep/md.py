"""Desk-scale molecular dynamics tensile payload.

Reduced Lennard-Jones units (epsilon = sigma = mass = 1, kB = 1).  The
crystal is FCC, periodic laterally (x, z); along the tensile axis y the
outermost atomic planes form rigid grips that move apart at a prescribed
rate.  The pair potential is LJ truncated and shifted at the cutoff --
cheap enough for desk-scale ensembles while leaving the whole statistics
chain potential-agnostic.  One Verlet pair list (cutoff + skin) lasts a
whole realization: `integrate` hands it, with the last forces, to the next
call; `checkpoints` carries it from call to call, yielding it with each record
and crystal, and `run_tensile` is that stream's records.  The energy checks
take their pairs from it, and each checkpoint gathers its separations from it
once, for the energy, grip stress and CNA; one count of the free atoms' CNA
labels gives the record's defect fractions.
The integrator computes forces only.  Its kernel skips the pairs with no
free atom, as LAMMPS's ``neigh_modify exclude`` does for a rigid group: their
forces land only on grip rows, which the integrator never applies.  The
energy and the observables use the whole list, masked to their radius.
Every pass over the list -- a step, an energy check, a record -- walks it in
blocks of _PAIR_BLOCK pairs, in list order, and gathers each block's
separations with `_separations` into one block-sized workspace allocated with
the list (as LAMMPS keeps its neighbour and force arrays across steps).  So a
step allocates nothing that grows with the pairs, an energy check only the
energy terms that its one `np.sum` adds, and a record those and its CNA shell.

Pair separations are (3, m), one row per axis.  Every sum keeps the terms and
order of the (m, 3) kernel in tests/oracles.py, so trajectories match it bit
for bit: r2 adds (x^2 + z^2) + y^2, as numpy's einsum("ij,ij->i") does on
3-wide rows, and each force bin (atom, axis) takes its terms in list order,
from one bincount or, across blocks, from np.add.at.

The lattice constant is the 0 K equilibrium spacing of the
truncated-shifted potential (a ~ 1.5496, slightly tighter than the
isolated-pair value 2^(1/6) * sqrt(2) because of the attractive second and
third shells inside the cutoff).  A perfect lattice is force-free by
symmetry at any spacing, but only at the equilibrium spacing does an
unstrained gripped slab also transmit zero stress to its grips.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .cna import cna_labels, defect_concentrations
from .errors import BlowUpError, ParameterError

#: reduced lattice constant: the 0 K equilibrium spacing of the
#: truncated-shifted potential (cutoff 2.5), where a gripped slab carries no
#: stress.  Close to the nearest-neighbour pair minimum 2^(1/6)*sqrt(2); the
#: longer shells pull the lattice in by ~2.4%.  Physical anchor: 0.4049 nm
#: for aluminum.
A0_DEFAULT = 1.5496034240894725

#: LJ truncation radius and Verlet skin, in sigma; CUTOFF + SKIN = 2.8 lies between
#: the 6th and 7th FCC shells, sqrt(3) and sqrt(3.5) * A0_DEFAULT (2.684, 2.899)
CUTOFF = 2.5
SKIN = 0.3
#: CNA bond radius, near the midpoint of the first two FCC shells (a0/sqrt(2), a0)
#: and inside CUTOFF, so the skin list holds every CNA bond
CNA_CUTOFF = 0.854 * A0_DEFAULT
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
        if not 0 < self.dt < math.inf:
            raise ParameterError("dt must be finite and > 0")
        if not 0 < self.strain_rate < math.inf:
            raise ParameterError("strain_rate must be finite and > 0")
        if not (0 <= self.target_strain <= 1):
            raise ParameterError("target_strain must lie in [0, 1]")
        n_checkpoints = round(self.target_strain / CHECKPOINT_DSTRAIN)
        if not abs(self.target_strain - n_checkpoints * CHECKPOINT_DSTRAIN) <= 1e-9:
            raise ParameterError(f"target_strain {self.target_strain:g} is not a multiple "
                                 f"of the checkpoint strain {CHECKPOINT_DSTRAIN:g}")
        if not 0 <= self.temperature < math.inf:
            raise ParameterError("temperature must be finite and >= 0")
        if self.equilibration_steps < 0:
            raise ParameterError("equilibration_steps must be >= 0")


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


def _min_image_r2(delta: np.ndarray, box, periodic, r2=None, tmp=None) -> np.ndarray:
    """Min-image the (3, m) separations ``delta`` in place, one axis row at a
    time, and return their squared lengths summed as (x^2 + z^2) + y^2, written
    into the (m,) rows ``r2`` and ``tmp`` (a temporary) when given."""
    r2 = np.empty(delta.shape[1]) if r2 is None else r2
    tmp = np.empty(delta.shape[1]) if tmp is None else tmp
    for ax in range(3):
        if periodic[ax]:
            L = box[ax]
            np.rint(np.divide(delta[ax], L, out=tmp), out=tmp)
            tmp *= L
            delta[ax] -= tmp
    dx, dy, dz = delta
    np.multiply(dx, dx, out=r2)
    r2 += np.multiply(dz, dz, out=tmp)
    r2 += np.multiply(dy, dy, out=tmp)
    return r2


#: cells are at least rmax / _REACH wide (with a slack against rounding), so a
#: pair closer than rmax is at most _REACH cells apart per axis: ~3.7 candidates
#: per kept pair at reach 2, ~6.4 at 1 (Mattson & Rice, CPC 119, 135, 1999)
_REACH = 2
_CELL_SLACK = 1.0 + 1e-9
#: candidate pairs tested at once: bounds the search's temporaries.  2^15
#: against 2^16 (tools/bench_analyze.py's block probe): a 6x8x6 build peaks at
#: 3.6 against 6.4 MB traced and a big_slab realization's process at 44.0
#: against 46.4 MB; single 16^3 builds took 141-177 against 144-155 ms, inside
#: this shared host's spread.  Testing the candidates one axis at a time at
#: 2^16 peaked at 4.9 MB and built 16^3 in 151-157 against 128-148 ms.
_BLOCK = 2**15


def neighbor_pairs(positions, box, periodic, rmax: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), i < j in row-major order, of the pairs whose
    min-image distance is below rmax > 0.

    Cell list: atoms are binned into at most n cells at least rmax/2 wide
    (periodic axes span the box, open axes the extent of the atoms), and the
    atoms of cells up to 2 apart per axis (a 125-cell stencil) are candidates,
    tested in blocks of about _BLOCK, so no candidate array grows with n.  They
    pass the same exact distance test as a dense all-pairs scan, and the kept
    pairs are sorted, so the result is the dense upper-triangle pair list.
    """
    if not rmax > 0:
        raise ParameterError(f"rmax must be > 0, got {rmax}")
    pos = np.asarray(positions, dtype=float)
    n = pos.shape[0]
    if n < 2:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    box = np.asarray(box, dtype=float)
    per = np.asarray(periodic, dtype=bool)
    x = np.where(per, np.mod(pos, np.where(per, box, 1.0)), pos - pos.min(axis=0))
    extent = np.where(per, box, x.max(axis=0))
    m = np.maximum(extent // (rmax / _REACH * _CELL_SLACK), 1)  # cells per axis
    # wider cells are always correct: widen to at most n cells in all
    m = np.maximum(m // max(1.0, (m.prod() / n) ** (1 / 3)), 1).astype(np.intp)
    c = np.minimum((x * (m / np.where(m > 1, extent, np.inf))).astype(np.intp), m - 1)
    cell = (c[:, 0] * m[1] + c[:, 1]) * m[2] + c[:, 2]
    order, count = np.argsort(cell, kind="stable"), np.bincount(cell, minlength=m.prod())
    start = np.cumsum(count) - count

    # Each occupied cell's stencil, one axis at a time; open axes end at the
    # outermost cells.  On a periodic axis of m < 2 * _REACH + 1 cells, keep the
    # m shifts from -(m - 1) // 2 up (s and s + m reach the same cell).
    occ = np.flatnonzero(count)
    near, ok = np.zeros((occ.size, 1), np.intp), np.ones((occ.size, 1), bool)
    for cells, mk, wrap in zip(np.unravel_index(occ, m), m, per):
        lo, hi = (-((mk - 1) // 2), mk // 2) if wrap and mk <= 2 * _REACH else (-_REACH, _REACH)
        nb = cells[:, None] + np.arange(lo, hi + 1)
        near = (near[:, :, None] * mk + nb[:, None, :] % mk).reshape(occ.size, -1)
        ok = (ok[:, :, None] & (wrap | (nb >= 0) & (nb < mk))[:, None, :]).reshape(occ.size, -1)
    # a pair of distinct cells is visited once, from the lower cell id
    visit = ok & (near >= occ[:, None]) & (count[near] > 0)
    owner, near = occ[np.nonzero(visit)[0]], near[visit]

    def members(cells):
        """The atoms of each of ``cells`` in turn, and each cell's count."""
        k = count[cells]
        return order[np.arange(k.sum()) + np.repeat(start[cells] - np.cumsum(k) + k, k)], k

    # every atom pair of the visited cell pairs, in blocks of about _BLOCK
    ends = np.cumsum(count[owner] * count[near])
    bounds = np.searchsorted(ends, np.arange(0, ends[-1] + _BLOCK, _BLOCK), side="right")
    keys = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        a, k = members(owner[lo:hi])
        b, k = members(np.repeat(near[lo:hi], k))
        a = np.repeat(a, k)
        # r_a - r_b is exactly -(r_b - r_a), so the test matches the i < j scan
        delta = pos.T.take(a, axis=1) - pos.T.take(b, axis=1)
        close = _min_image_r2(delta, box, per) < rmax * rmax
        close &= (cell[a] != cell[b]) | (a < b)  # within one cell, each pair once
        a, b = a[close], b[close]
        keys.append(np.minimum(a, b) * n + np.maximum(a, b))
    keys = np.concatenate(keys)
    keys.sort()
    return np.divmod(keys, n)


#: pairs per block of a pass over a pair list: the block's workspace is 1 MiB,
#: inside the 2 MiB L2 per core of the 2-core Xeon it was measured on, where a
#: 16^3 step took a median 23.4 ms against 34.9 ms in a whole-list workspace
#: (tools/bench_analyze.py's paper probe).  Single 16^3 processes at 2^13 and
#: 2^14 peaked at 98.1 and 98.3 MB against 104.8 and 101.8 MB at 2^15 and 2^16,
#: and 2^14 stepped in 26.0 ms against 30.3 ms at 2^13 (its pair_block probe)
_PAIR_BLOCK = 2**14


def _blocks(pairs):
    """The pair list ``pairs`` as consecutive (i, j) slices of _PAIR_BLOCK
    pairs, at least one."""
    i, j = pairs
    return [(i[lo:lo + _PAIR_BLOCK], j[lo:lo + _PAIR_BLOCK])
            for lo in range(0, max(len(i), 1), _PAIR_BLOCK)]


def _workspace(m: int, reuse=None):
    """Buffers for the separations and forces of m pairs, 64 B per pair, as
    views of one block: delta and spare (3, m), then r2 and coeff (m,).  The
    block of the workspace ``reuse`` serves again when it holds m pairs."""
    if reuse is None or reuse[0].base.size < 8 * m:
        block = np.empty(8 * m)
    else:
        block = reuse[0].base
    return (block[:3 * m].reshape(3, m), block[3 * m:6 * m].reshape(3, m),
            block[6 * m:7 * m], block[7 * m:8 * m])


def _separations(crystal: Crystal, pairs, work=None):
    """The `_workspace` of the listed pairs, in the block of ``work`` if it
    fits: delta holds r_i - r_j min-imaged as (3, m), r2 its squared lengths
    (see the module doc); spare and coeff are free rows.  BlowUpError below 0.5 sigma."""
    work = _workspace(len(pairs[0]), work)
    delta, spare, r2, _ = work
    pos = crystal.positions.T
    # the listed indices are in range; in "raise" mode numpy buffers ``out``
    np.take(pos, pairs[0], axis=1, out=delta, mode="clip")
    delta -= np.take(pos, pairs[1], axis=1, out=spare, mode="clip")
    _min_image_r2(delta, crystal.box, crystal.periodic, r2, spare[0])
    # every pair closer than 0.5 sigma lies inside the cutoff
    if r2.size and r2.min() < 0.5 ** 2:
        raise BlowUpError(
            f"atom pair at r = {math.sqrt(r2.min()):.3g} < 0.5 sigma; dt too large?")
    return work


def _lj_coeff(r2: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """Truncated-shifted LJ dU/dr * (1/r) per pair inside the cutoff, written
    into the (m,) rows ``out`` and ``tmp`` (a temporary) when given."""
    inv_r6 = np.power(np.divide(1.0, r2, out=tmp), 3, out=tmp)
    coeff = np.square(inv_r6, out=out)
    coeff *= 2.0
    coeff -= inv_r6
    coeff *= 24.0
    coeff /= r2
    return coeff


def _pair_forces(crystal: Crystal, pairs, work) -> np.ndarray:
    """The (3, m) forces on i of the listed pairs, in their `_workspace`
    ``work``: the LJ coefficient of every pair times r2 < CUTOFF^2."""
    delta, spare, r2, coeff = _separations(crystal, pairs, work)
    _lj_coeff(r2, coeff, spare[0])
    coeff *= np.less(r2, CUTOFF * CUTOFF, out=spare[1])
    delta *= coeff
    return delta


def _forces(crystal: Crystal, pairs, work) -> np.ndarray:
    """Forces (n, 3) from the listed pairs, +f to i and -f to j, computed
    block by block in the workspace ``work``, each bin's terms in list order:
    the first block's per-side sums are one bincount per axis, and np.add.at
    adds each later block's, in index order as bincount does (it costs ~35%
    more per pair, so a list of one block is bincount's alone).  A pair
    outside the cutoff adds +-0.0, which leaves a sum started at 0.0 (never
    -0.0) as it was."""
    n = crystal.n_atoms
    (i, j), *rest = _blocks(pairs)
    delta = _pair_forces(crystal, (i, j), work)
    on_i = np.array([np.bincount(i, d, n) for d in delta])
    on_j = np.array([np.bincount(j, d, n) for d in delta])
    for i, j in rest:
        for d, fi, fj in zip(_pair_forces(crystal, (i, j), work), on_i, on_j):
            np.add.at(fi, i, d)
            np.add.at(fj, j, d)
    return (on_i - on_j).T


def potential_energy(crystal: Crystal, pairs, work=None, visit=None) -> float:
    """Truncated-shifted LJ energy of the sorted pair list ``pairs``, one that
    holds every pair inside the cutoff, such as the integrator's skin list:
    one np.sum over the terms of its pairs inside the cutoff in list order,
    gathered block by block by `_separations` into ``work``.  Each block
    (i, j, delta, r2) is handed to ``visit`` when given; BlowUpError as
    `_separations`."""
    terms, k = np.empty(len(pairs[0])), 0
    for block in _blocks(pairs):
        delta, _, r2, _ = _separations(crystal, block, work)
        inv_r6 = (1.0 / r2[r2 < CUTOFF * CUTOFF]) ** 3
        terms[k:k + inv_r6.size] = 4.0 * (inv_r6**2 - inv_r6) - _SHIFT
        k += inv_r6.size
        if visit is not None:
            visit(*block, delta, r2)
    return float(np.sum(terms[:k]))


def kinetic_energy(crystal: Crystal, free_only: bool = False) -> float:
    v = crystal.velocities[crystal.free_mask] if free_only else crystal.velocities
    return 0.5 * float(np.sum(v * v))


#: what one `integrate` call hands the next: the skin pair list (i, j), its
#: pairs with a free atom (fi, fj), one block-sized `_workspace` (for
#: min(len(i), _PAIR_BLOCK) pairs), the positions the lists were built at, and
#: the current forces.  Each block of a step's forces, an energy check and a
#: record lays its views out in that workspace's block; only the returned
#: forces and energy terms outlive a block.  A rebuild lays the new workspace
#: out in the old one's block when the new list's block fits, so the caller's
#: old state does not keep a second block alive (no rebuild outgrew the first
#: list, built on the perfect lattice, in default realizations at seeds 0 and
#: 1, and a list of _PAIR_BLOCK pairs or more always fits).  The forces come
#: from (fi, fj) alone.  Their grip rows lack the grip-grip terms and only ever
#: meet a zero kick, while a free atom's row gets the same terms in the same
#: order as from (i, j): in i + j order j still rises for each i and i for each
#: j, so each bin's terms come in list order, and an add need not wait on the
#: last one to its bin.  So trajectories are bit for bit those of the whole
#: list.  The energy is not carried: the callers that read it sum it over (i, j)
#: with `potential_energy`.
PairState = namedtuple("PairState", "i j fi fj work ref_pos forces")


def _skin_lists(crystal: Crystal, work=None):
    """The sorted skin list (i, j), its pairs with a free atom (fi, fj) in i + j
    order, and the `_workspace` of one block of (i, j), in the block of
    ``work`` if it fits."""
    i, j = neighbor_pairs(crystal.positions, crystal.box, crystal.periodic, CUTOFF + SKIN)
    free = crystal.free_mask
    keep = np.flatnonzero(free[i] | free[j])
    keep = keep.take(np.argsort(i.take(keep) + j.take(keep), kind="stable"))
    return i, j, i.take(keep), j.take(keep), _workspace(min(i.size, _PAIR_BLOCK), work)


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
    pos, per = crystal.positions, np.asarray(crystal.periodic)
    if state is None:
        i, j, fi, fj, work = _skin_lists(crystal)
        state = PairState(i, j, fi, fj, work, pos.copy(), _forces(crystal, (fi, fj), work))
    i, j, fi, fj, work, ref_pos, forces = state
    for _ in range(n_steps):
        crystal.velocities += kick * forces
        pos += dt * crystal.velocities
        for ax in np.flatnonzero(per):
            np.remainder(pos[:, ax], crystal.box[ax], out=pos[:, ax])
        moved = _min_image_r2((pos - ref_pos).T, crystal.box, per).max()
        if not moved <= (0.5 * SKIN) ** 2:
            if not math.isfinite(moved):
                raise BlowUpError("positions are no longer finite; dt too large?")
            i, j, fi, fj, work = _skin_lists(crystal, work)
            ref_pos = pos.copy()
        forces = _forces(crystal, (fi, fj), work)
        crystal.velocities += kick * forces
    return PairState(i, j, fi, fj, work, ref_pos, forces)


#: total-energy drift per atom over one equilibration chunk (NVE: no rescale
#: inside it) that marks an unstable run; default spec ~6e-5, dt 0.02 ~7e-3
MAX_CHUNK_DRIFT = 0.1


def equilibrate(crystal: Crystal, params: MDParams) -> PairState:
    """Equilibration with periodic velocity rescaling to the target temperature;
    raises BlowUpError when a chunk between rescales drifts by more than
    MAX_CHUNK_DRIFT per atom.  Returns the state for the next `integrate`."""
    steps, interval = params.equilibration_steps, RESCALE_INTERVAL
    state = integrate(crystal, params, 0)
    potential = potential_energy(crystal, (state.i, state.j), state.work)
    for done in range(0, steps, interval):
        chunk = min(interval, steps - done)
        e0 = potential + kinetic_energy(crystal)
        state = integrate(crystal, params, chunk, state=state)
        potential = potential_energy(crystal, (state.i, state.j), state.work)
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


def _grip_forces(crystal: Crystal, i, j, delta, r2) -> tuple[np.ndarray, np.ndarray]:
    """The y-forces of free j on top-grip i, then of free i on top-grip j, in
    list order, of the pairs (i, j) inside the cutoff with `_separations`
    (delta, r2); the force coefficient is elementwise, so it is taken on these
    alone."""
    top, free = crystal.grip_side > 0, crystal.free_mask
    inside = r2 < CUTOFF * CUTOFF
    on_i, on_j = top[i] & free[j] & inside, top[j] & free[i] & inside
    return _lj_coeff(r2[on_i]) * delta[1, on_i], -(_lj_coeff(r2[on_j]) * delta[1, on_j])


def grip_stress(crystal: Crystal, forces) -> float:
    """Normal stress at the top grip, tension positive.

    Sum of y-forces exerted by free atoms on top-grip atoms, divided by the
    x-z cross-section; under tension the free bulk pulls the top grip
    inward (-y), so the sign is flipped to make tension positive.
    ``forces`` holds the `_grip_forces` of each block of a list holding
    every pair inside the cutoff, such as the skin list, in list order; one
    sum takes all their i-side terms, then all their j-side terms.
    """
    if not crystal.grip_side.any():
        raise ParameterError("crystal has no grip layers")
    f_y = np.concatenate([f[side] for side in (0, 1) for f in forces])
    return -float(np.sum(f_y)) / float(crystal.box[0] * crystal.box[2])


def checkpoint_steps(params: MDParams, crystal: Crystal) -> list[int]:
    """The integration step of each checkpoint 0, d, 2d, ... target (d =
    CHECKPOINT_DSTRAIN, nearest step) for grips that start at ``crystal``'s
    separation; raises ParameterError when two checkpoints fall on one step."""
    l0 = grip_separation(crystal)
    dl_per_step = params.strain_rate * A0_DEFAULT * params.dt  # grip separation per step
    n_checkpoints = int(round(params.target_strain / CHECKPOINT_DSTRAIN))
    steps = [int(round(k * CHECKPOINT_DSTRAIN * l0 / dl_per_step))
             for k in range(n_checkpoints + 1)]
    if any(a >= b for a, b in zip(steps, steps[1:])):
        raise ParameterError(f"strain_rate {params.strain_rate:g} puts two checkpoints "
                             "on one integration step")
    return steps


def _record(crystal: Crystal, state: PairState, strain: float) -> DefectRecord:
    """The checkpoint record of ``crystal`` at ``strain``: one walk over the
    skin list of ``state``, each block gathered once into its workspace, gives
    the energy, the grip forces and the CNA shell (the pairs within
    CNA_CUTOFF)."""
    forces, shell = [], []

    def visit(i, j, delta, r2):
        forces.append(_grip_forces(crystal, i, j, delta, r2))
        near = r2 < CNA_CUTOFF * CNA_CUTOFF
        shell.append((i[near], j[near]))

    energy = potential_energy(crystal, (state.i, state.j), state.work, visit)
    energy += kinetic_energy(crystal)
    sigma_top = grip_stress(crystal, forces)
    labels = cna_labels(crystal.positions, [np.concatenate(side) for side in zip(*shell)])
    return DefectRecord(strain, *defect_concentrations(labels, crystal.free_mask),
                        sigma_top=sigma_top, energy=energy / crystal.n_atoms)


def checkpoints(params: MDParams, geometry: tuple[int, int, int], seed: int = 0):
    """Build, equilibrate and strain a crystal, yielding (record, crystal,
    state) at each step of `checkpoint_steps` (strain: the grip separation's
    relative change): its `DefectRecord`, the live `Crystal` and the `PairState`
    to resume from.  Both are live: the next draw moves them on, so a caller
    that keeps one copies the crystal.  The grid is checked before `equilibrate`."""
    crystal = build_crystal(*geometry, temperature=params.temperature, seed=seed)
    steps = checkpoint_steps(params, crystal)  # the grips stand still in equilibrate
    state = equilibrate(crystal, params)
    grip_speed = 0.5 * params.strain_rate * A0_DEFAULT  # per grip; separation rate is 2x
    for k, step in enumerate(steps):
        if k:
            state = integrate(crystal, params, step - steps[k - 1], grip_speed=grip_speed,
                              state=state)
        yield _record(crystal, state, k * CHECKPOINT_DSTRAIN), crystal, state


def run_tensile(params: MDParams, geometry: tuple[int, int, int],
                seed: int = 0) -> list[DefectRecord]:
    """The records of `checkpoints`, from strain 0 to target."""
    return [record for record, _, _ in checkpoints(params, geometry, seed)]
