"""MD payload: lattice construction, integration, tensile runs, stress."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from oracles import (
    cutoff_list,
    dense_pairs,
    oracle_cna_labels,
    oracle_verlet,
    rows_compute_forces,
    rows_cutoff_pairs,
    rows_grip_stress,
    rows_pair_forces,
    rows_potential_energy,
)

from gridsweep import cna, md
from gridsweep.cna import cna_labels, defect_concentrations
from gridsweep.errors import BlowUpError, ParameterError
from gridsweep.md import (
    A0_DEFAULT,
    Crystal,
    MDParams,
    build_crystal,
    fcc_positions,
    grip_separation,
    grip_stress,
    integrate,
    kinetic_energy,
    neighbor_pairs,
    potential_energy,
    run_tensile,
)


def energy(crystal):
    """Potential energy over a fresh search at the cutoff."""
    return potential_energy(crystal, cutoff_list(crystal))


def stress(crystal, pairs=None, work=None):
    """Grip stress over the listed pairs, or a fresh search at the cutoff, from
    the grip forces of each block as a checkpoint record walks them."""
    forces = []
    potential_energy(crystal, cutoff_list(crystal) if pairs is None else pairs, work,
                     lambda *block: forces.append(md._grip_forces(crystal, *block)))
    return grip_stress(crystal, forces)


def two_atom_crystal(separation, box_side=30.0):
    pos = np.array([[10.0, 10.0, 10.0],
                    [10.0 + separation, 10.0, 10.0]])
    return Crystal(positions=pos, velocities=np.zeros((2, 3)),
                   box=np.array([box_side] * 3), periodic=(True, True, True),
                   grip_side=np.zeros(2, dtype=np.int8))


# --- construction --------------------------------------------------------


def test_fcc_cell_has_four_atoms():
    crystal = build_crystal(2, 2, 2, grip_planes=0)
    assert crystal.n_atoms == 32
    assert fcc_positions(3, 4, 5).shape == (4 * 3 * 4 * 5, 3)


def test_zero_temperature_means_zero_velocities():
    crystal = build_crystal(3, 4, 3, temperature=0.0)
    assert np.all(crystal.velocities == 0)


def test_momentum_is_zeroed_at_build():
    crystal = build_crystal(4, 4, 4, temperature=0.1, seed=3, grip_planes=0)
    assert np.linalg.norm(crystal.velocities.sum(axis=0)) < 1e-12


def test_build_rejects_small_or_overgripped():
    with pytest.raises(ParameterError):
        build_crystal(1, 4, 4)
    with pytest.raises(ParameterError):
        build_crystal(2, 2, 2, grip_planes=2)  # grips would cover everything


def test_grip_layers_marked_and_velocity_free():
    crystal = build_crystal(3, 4, 3, temperature=0.1, seed=1)
    # 3 planes of the 8 (010) planes per end
    assert (~crystal.free_mask).sum() == 3 * crystal.n_atoms // 4
    assert np.all(crystal.velocities[~crystal.free_mask] == 0)
    # the bottom grip (-1) lies below every free atom, the top grip (+1) above
    y, side = crystal.positions[:, 1], crystal.grip_side
    assert (side < 0).sum() == (side > 0).sum() == 3 * crystal.n_atoms // 8
    assert y[side < 0].max() < y[side == 0].min() <= y[side == 0].max() < y[side > 0].min()


# --- neighbour search ----------------------------------------------------


def test_neighbor_pairs_two_atoms():
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    box = np.array([10.0] * 3)
    i, j = neighbor_pairs(pos, box, (True, True, True), 1.5)
    assert list(i) == [0] and list(j) == [1]
    i, j = neighbor_pairs(pos, box, (True, True, True), 0.5)
    assert i.size == 0 and j.size == 0


def test_neighbor_pairs_wraps_periodic_axes():
    pos = np.array([[0.2, 5.0, 5.0], [9.8, 5.0, 5.0]])
    box = np.array([10.0] * 3)
    assert neighbor_pairs(pos, box, (True, True, True), 1.0)[0].size == 1
    assert neighbor_pairs(pos, box, (False, True, True), 1.0)[0].size == 0


def test_neighbor_pairs_empty_result():
    box = np.array([10.0] * 3)
    for pos in (np.zeros((0, 3)), np.zeros((1, 3)), np.array([[0.0] * 3, [4.0] * 3])):
        i, j = neighbor_pairs(pos, box, (True, False, True), 1.0)
        assert i.size == 0 and j.size == 0


@pytest.mark.parametrize("rmax", [0.0, -1.0, float("nan")])
def test_neighbor_pairs_rejects_nonpositive_rmax(rmax):
    pos = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    with pytest.raises(ParameterError):
        neighbor_pairs(pos, np.array([10.0] * 3), (True, True, True), rmax)


def traced_peak_mb(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rmax", [1.0, 0.5])
def test_neighbor_pairs_cell_grid_does_not_grow_with_empty_space(rmax):
    # a grid of box / (rmax/2) cells per axis would be 8e6-6.4e7 cells here
    # (14.8 and 120 MB traced with rmax-wide cells); at most n cells is tiny
    pos = np.array([[10.0, 10.0, 10.0], [10.4, 10.0, 10.0]])
    box = np.array([100.0] * 3)
    assert traced_peak_mb(lambda: neighbor_pairs(pos, box, (True, True, True), rmax)) < 1.0
    assert neighbor_pairs(pos, box, (True, True, True), rmax)[0].size == 1


def test_neighbor_pairs_memory_does_not_scale_with_candidates():
    # 4,000 atoms at the skin radius: 161,200 pairs.  Testing every candidate
    # at once peaked at 97 MB traced, blocks of 2^17 candidates at 14.5 MB,
    # blocks of 2^16 at 9.1 MB; blocks of 2^15 peak at 6.4 MB
    crystal = build_crystal(10, 10, 10, temperature=0.05, seed=2)
    rmax = md.CUTOFF + md.SKIN
    assert traced_peak_mb(
        lambda: neighbor_pairs(crystal.positions, crystal.box, crystal.periodic, rmax)) < 12.0


def assert_same_pairs(pos, box, periodic, rmax):
    i, j = neighbor_pairs(pos, box, periodic, rmax)
    di, dj = dense_pairs(pos, box, periodic, rmax)
    assert np.array_equal(i, di) and np.array_equal(j, dj)


def assert_same_pairs_in_random_boxes(box_over_rmax, n_atoms, seed):
    rng = np.random.default_rng(seed)
    rmax = 1.3
    box = rmax * box_over_rmax * np.array([1.0, 1.05, 0.95])
    for periodic in itertools.product((False, True), repeat=3):
        # coordinates spread over three box widths: negative and out-of-box too
        pos = rng.uniform(-1.0, 2.0, size=(n_atoms, 3)) * box
        assert_same_pairs(pos, box, periodic, rmax)


# cells at least rmax/2 wide, at most 60 (one per atom): periodic axes of 1,
# 1-2, 1-3, 1-4, 1-4 and 1-4 cells over the 8 combinations; the first width
# is narrower than rmax
@pytest.mark.parametrize("box_over_rmax", [0.6, 1.2, 1.5, 2.5, 3.5, 7.5])
def test_neighbor_pairs_match_dense_scan(box_over_rmax):
    assert_same_pairs_in_random_boxes(box_over_rmax, 60, int(10 * box_over_rmax))


# 250 atoms: 4 cells of rmax/2 on every periodic axis, or 6 with all three
# periodic (fewer when open axes share the at-most-n-cells grid).  At 4 cells
# shifts -2 and +2 reach one cell, which must be listed once.
@pytest.mark.parametrize("box_over_rmax", [2.2, 3.25])
def test_neighbor_pairs_match_dense_scan_on_short_periodic_axes(box_over_rmax):
    assert_same_pairs_in_random_boxes(box_over_rmax, 250, int(100 * box_over_rmax))


@pytest.mark.parametrize("rmax", [0.854 * A0_DEFAULT, 2.5, 2.9])
def test_neighbor_pairs_match_dense_scan_on_lattices(rmax):
    slab = build_crystal(4, 6, 4, temperature=0.05, seed=2)
    assert_same_pairs(slab.positions, slab.box, slab.periodic, rmax)
    bulk = build_crystal(3, 3, 3, grip_planes=0)
    assert_same_pairs(bulk.positions, bulk.box, bulk.periodic, rmax)


@pytest.mark.parametrize("rmax", [0.854 * A0_DEFAULT, 2.5, 2.9])
def test_neighbor_pairs_match_dense_scan_over_many_blocks(rmax, monkeypatch):
    monkeypatch.setattr(md, "_BLOCK", 300)  # 20 to 180 blocks
    test_neighbor_pairs_match_dense_scan_on_lattices(rmax)


# --- pair kernel ---------------------------------------------------------


# slab: gripped, 4 cells wide in x and z; bulk: periodic, 3 cells wide, so
# the cutoff passes L/2; narrow: periodic, 4 cells wide, so skin pairs listed
# below rmax = CUTOFF + SKIN = 2.8 drift past L/2 (3.1 unstrained) when
# jittered and strained
KERNEL_CRYSTALS = {"slab": (4, 6, 4, 3), "bulk": (3, 3, 3, 0), "narrow": (4, 4, 4, 0)}


@settings(max_examples=60, deadline=None)
@given(kind=hs.sampled_from(sorted(KERNEL_CRYSTALS)),
       axis=hs.integers(0, 2),
       strain=hs.floats(-0.05, 0.12),
       jitter=hs.floats(0.0, 0.15),
       seed=hs.integers(0, 2**32 - 1))
def test_pair_kernel_matches_row_layout_oracle(kind, axis, strain, jitter, seed):
    nx, ny, nz, grip_planes = KERNEL_CRYSTALS[kind]
    crystal = build_crystal(nx, ny, nz, grip_planes=grip_planes)
    # the integrator's skin lists and workspace, built before the atoms moved
    i, j, fi, fj, work = md._skin_lists(crystal)
    skin = (i, j)
    rng = np.random.default_rng(seed)
    crystal.positions += rng.uniform(-jitter, jitter, crystal.positions.shape)
    crystal.positions[:, axis] *= 1.0 + strain
    crystal.box[axis] *= 1.0 + strain

    n, free = crystal.n_atoms, crystal.free_mask
    cutoff = cutoff_list(crystal)
    want_forces, want_potential, want_r2_min = rows_compute_forces(crystal)
    assert np.array_equal(md._forces(crystal, cutoff, md._workspace(cutoff[0].size)),
                          want_forces)
    assert (energy(crystal), md._separations(crystal, cutoff)[2].min()) == (want_potential,
                                                                            want_r2_min)
    # the step on the stale i + j list, in the skin list's workspace, whose
    # contents are stale too: every row as the oracle's over the same pairs in
    # sorted order, with pairs drifted out of the cutoff adding +-0.0
    for buffer in work:
        buffer.fill(np.nan)
    order = np.argsort(fi * n + fj)
    assert np.array_equal(md._forces(crystal, (fi, fj), work),
                          rows_pair_forces(n, *rows_cutoff_pairs(crystal, (fi[order], fj[order]))))
    # the energy and the stress of the stale skin list, gathered into its
    # workspace after the step: those of its pairs still inside the cutoff
    assert potential_energy(crystal, skin, work) == rows_potential_energy(
        rows_cutoff_pairs(crystal, skin)[3])
    if grip_planes:
        assert stress(crystal) == rows_grip_stress(crystal)
        assert stress(crystal, skin, work) == rows_grip_stress(crystal, skin)
    # and on the lists the integrator rebuilds here: the free rows of the
    # fresh search (grip rows lack grip-grip terms and are never applied)
    _, _, fi, fj, work = md._skin_lists(crystal)
    forces = md._forces(crystal, (fi, fj), work)
    assert np.array_equal(forces[free], want_forces[free])


@pytest.mark.parametrize("evaluate", [pytest.param(energy, id="potential_energy"),
                                      rows_compute_forces,
                                      lambda crystal: integrate(crystal, MDParams(), 0)])
def test_close_pair_across_a_periodic_face_blows_up(evaluate):
    crystal = build_crystal(4, 4, 4, grip_planes=0)
    # the last atom 0.45 sigma from atom 0 (at the origin), across the x face
    crystal.positions[-1] = (crystal.positions[0] - [0.45, 0.0, 0.0]) % crystal.box
    with pytest.raises(BlowUpError, match="r = 0.45 < 0.5 sigma"):
        evaluate(crystal)


# --- integration ---------------------------------------------------------


def test_gripped_lattice_is_an_equilibrium():
    crystal = build_crystal(4, 4, 4, temperature=0.0)
    before = crystal.positions.copy()
    integrate(crystal, MDParams(), 100)
    delta = crystal.positions - before
    for axis in (0, 2):  # fold out whole-box wraps along the periodic axes
        delta[:, axis] -= crystal.box[axis] * np.round(delta[:, axis] / crystal.box[axis])
    assert np.abs(delta).max() < 1e-8


def test_pair_oscillation_period_matches_fine_dt_reference():
    r_eq = 2 ** (1 / 6)

    def period(dt, n_steps):
        params = MDParams(dt=dt, temperature=0.0)
        crystal = two_atom_crystal(r_eq + 0.05)
        times, seps = [], []
        state = None
        for step in range(n_steps):
            state = integrate(crystal, params, 1, state=state)
            times.append((step + 1) * dt)
            seps.append(np.linalg.norm(crystal.positions[1] - crystal.positions[0]))
        seps = np.asarray(seps) - np.mean(seps)
        crossings = []
        for k in range(1, len(seps)):
            if seps[k - 1] < 0 <= seps[k]:  # upward crossing, interpolated
                frac = -seps[k - 1] / (seps[k] - seps[k - 1])
                crossings.append(times[k - 1] + frac * dt)
        assert len(crossings) >= 3
        return (crossings[-1] - crossings[0]) / (len(crossings) - 1)

    coarse = period(0.004, 1000)
    fine = period(0.00004, 100_000)
    assert abs(coarse - fine) / fine < 1e-3


def test_a_rebuilt_list_lays_its_workspace_out_in_the_old_block(monkeypatch):
    # the list of 4,680 skin pairs is one block, then three of 2,000
    params = MDParams(temperature=0.1)
    for pair_block in (md._PAIR_BLOCK, 2000):
        monkeypatch.setattr(md, "_PAIR_BLOCK", pair_block)
        crystal = build_crystal(3, 4, 3, temperature=0.1, seed=6)
        first = integrate(crystal, params, 0, grip_speed=0.2)
        state = integrate(crystal, params, 300, grip_speed=0.2, state=first)
        assert not np.array_equal(state.ref_pos, first.ref_pos)  # the list was rebuilt
        assert state.i.size <= first.i.size
        # the workspace holds one block of the list, 64 B per pair
        block = min(first.i.size, pair_block)
        assert first.work[0].base.nbytes == 64 * block
        assert all(b.base is first.work[0].base for b in state.work)
        # a block that does not fit gets a block of its own
        assert md._workspace(block + 1, first.work)[0].base is not first.work[0].base


def small_blocks(monkeypatch):
    """Blocks of a few hundred pairs and candidates: a pass over a 3x4x3 or
    4x6x4 list spans 7 to 50 of them.  CNA takes 40 centres at a time, so that
    a 3x4x3 crystal's shell spans several blocks too."""
    monkeypatch.setattr(md, "_PAIR_BLOCK", 300)
    monkeypatch.setattr(md, "_BLOCK", 400)
    monkeypatch.setattr(cna, "CNA_BLOCK", 40)


def test_blocked_passes_keep_the_bits(monkeypatch):
    crystal = build_crystal(4, 6, 4, temperature=0.1, seed=7)
    crystal.positions += np.random.default_rng(7).uniform(-0.1, 0.1, crystal.positions.shape)
    n = crystal.n_atoms
    i, j, fi, fj, work = md._skin_lists(crystal)  # one block: the bincount path
    skin = (i, j)
    whole = (md._forces(crystal, (fi, fj), work), potential_energy(crystal, skin, work),
             stress(crystal, skin, work))
    small_blocks(monkeypatch)
    *lists, work = md._skin_lists(crystal)
    assert all(np.array_equal(a, b) for a, b in zip(lists, (i, j, fi, fj)))
    assert work[0].base.nbytes == 64 * 300
    assert (len(md._blocks(skin)), len(md._blocks((fi, fj)))) == (52, 36)
    order = np.argsort(fi * n + fj)
    forces = md._forces(crystal, (fi, fj), work)
    assert np.array_equal(forces, whole[0])
    assert np.array_equal(forces, rows_pair_forces(n, *rows_cutoff_pairs(crystal,
                                                                         (fi[order], fj[order]))))
    assert potential_energy(crystal, skin, work) == whole[1] == rows_potential_energy(
        rows_cutoff_pairs(crystal, skin)[3])
    assert stress(crystal, skin, work) == whole[2] == rows_grip_stress(crystal, skin)


def test_blocked_trajectory_matches_fresh_search_verlet(monkeypatch):
    params = MDParams(temperature=0.1)
    start = build_crystal(3, 4, 3, temperature=0.1, seed=6)
    whole, blocked, reference = start.copy(), start.copy(), start.copy()
    free = start.free_mask
    integrate(whole, params, 300, grip_speed=0.2)  # lists of one block
    small_blocks(monkeypatch)
    first = state = integrate(blocked, params, 0, grip_speed=0.2)
    for n in (1, 37, 100, 162):
        state = integrate(blocked, params, n, grip_speed=0.2, state=state)
        oracle_verlet(reference, params.dt, n, grip_speed=0.2)
        assert np.array_equal(blocked.positions, reference.positions)
        assert np.array_equal(blocked.velocities[free], reference.velocities[free])
    # the rebuild took the force list from 2,268 pairs in 8 blocks to 1,965 in 7
    assert len(md._blocks((first.fi, first.fj))) == 8
    assert len(md._blocks((state.fi, state.fj))) == 7
    assert np.array_equal(blocked.positions, whole.positions)
    assert np.array_equal(blocked.velocities, whole.velocities)


def test_params_reject_negative_equilibration_steps():
    # -5 once ran no equilibration chunk at all and strained the bare lattice
    with pytest.raises(ParameterError, match="equilibration_steps"):
        MDParams(equilibration_steps=-5)
    assert MDParams(equilibration_steps=0).equilibration_steps == 0


def test_threaded_state_matches_one_call():
    params = MDParams(temperature=0.1)
    start = build_crystal(3, 4, 3, temperature=0.1, seed=6)
    whole, threaded, fresh = start.copy(), start.copy(), start.copy()
    integrate(whole, params, 300, grip_speed=0.2)
    state = None
    for n in (1, 0, 37, 100, 162):
        state = integrate(threaded, params, n, grip_speed=0.2, state=state)
        integrate(fresh, params, n, grip_speed=0.2)  # new pair list and forces per call
    assert not np.array_equal(state.ref_pos, start.positions)  # the list was rebuilt
    for crystal in (threaded, fresh):
        assert np.array_equal(crystal.positions, whole.positions)
        assert np.array_equal(crystal.velocities, whole.velocities)


# 4x6x4: a gripped slab under strain; 4x4x4: its top and bottom grips lie
# within the cutoff of each other
@pytest.mark.parametrize("geometry", [(4, 6, 4), (4, 4, 4)])
def test_gripped_trajectory_matches_fresh_search_verlet(geometry):
    params = MDParams(temperature=0.1)
    start = build_crystal(*geometry, temperature=0.1, seed=5)
    crystal, reference = start.copy(), start.copy()
    free = start.free_mask
    state = None
    for n in (0, 1, 60, 99):
        state = integrate(crystal, params, n, grip_speed=0.4, state=state)
        potential = oracle_verlet(reference, params.dt, n, grip_speed=0.4)
        assert np.array_equal(crystal.positions, reference.positions)
        assert np.array_equal(crystal.velocities[free], reference.velocities[free])
        assert potential_energy(crystal, (state.i, state.j)) == potential
    assert not np.array_equal(state.ref_pos, start.positions)  # the list was rebuilt
    assert state.fi.size < state.i.size  # and the forces skipped grip-grip pairs


def in_bin_order(fi, fj):
    """Whether j rises along the list for each i, and i for each j."""
    by_i, by_j = np.argsort(fi, kind="stable"), np.argsort(fj, kind="stable")
    return bool(np.all((np.diff(fi[by_i]) > 0) | (np.diff(fj[by_i]) > 0))
                and np.all((np.diff(fj[by_j]) > 0) | (np.diff(fi[by_j]) > 0)))


@pytest.mark.parametrize("geometry,grip_planes", [((4, 6, 4), 3), ((3, 3, 3), 0), ((6, 8, 6), 3)])
def test_force_list_is_the_free_subset_in_bin_order(geometry, grip_planes):
    crystal = build_crystal(*geometry, temperature=0.1, seed=3, grip_planes=grip_planes)
    i, j, fi, fj, work = md._skin_lists(crystal)
    n, free = crystal.n_atoms, crystal.free_mask
    assert np.all(np.diff(i * n + j) > 0)
    # a permutation of the sorted pairs with a free atom ...
    assert np.array_equal(np.sort(fi * n + fj), (i * n + j)[free[i] | free[j]])
    # ... in i + j order, so every force bin gets its terms in list order
    assert np.all(np.diff(fi + fj) >= 0)
    assert in_bin_order(fi, fj)
    assert not in_bin_order(fi[::-1], fj[::-1])
    # the workspace of every pass over the lists: 64 B per pair of one block
    # of the skin list, which 6x8x6's 45,648 pairs overflow
    k = min(i.size, md._PAIR_BLOCK)
    assert [b.shape for b in work] == [(3, k), (3, k), (k,), (k,)]


@pytest.mark.parametrize("geometry", [(4, 6, 4), (6, 8, 6)])
def test_skin_list_of_a_perfect_lattice_ends_between_the_6th_and_7th_shell(geometry):
    # FCC shells lie at sqrt(k/2) * a0; CUTOFF + SKIN = 2.8 lies between the
    # 6th (2.684) and the 7th (2.899)
    crystal = build_crystal(*geometry)
    midpoint = (math.sqrt(3.0) + math.sqrt(3.5)) / 2 * A0_DEFAULT
    i, j, *_ = md._skin_lists(crystal)
    want_i, want_j = neighbor_pairs(crystal.positions, crystal.box, crystal.periodic, midpoint)
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)


def test_ungripped_forces_use_the_skin_list_itself():
    params = MDParams()
    crystal = build_crystal(3, 3, 3, temperature=0.1, seed=5, grip_planes=0)
    reference = crystal.copy()
    state = integrate(crystal, params, 50)
    n = crystal.n_atoms
    assert np.array_equal(np.sort(state.fi * n + state.fj), state.i * n + state.j)
    assert potential_energy(crystal, (state.i, state.j)) == oracle_verlet(
        reference, params.dt, 50)
    assert np.array_equal(crystal.positions, reference.positions)
    assert np.array_equal(crystal.velocities, reference.velocities)


def test_checkpoint_record_matches_public_observables():
    params = MDParams(strain_rate=0.2, target_strain=0.03, equilibration_steps=60)
    travel = params.strain_rate * A0_DEFAULT * params.dt  # grip separation per step

    def observables(crystal):
        bonds = neighbor_pairs(crystal.positions, crystal.box, crystal.periodic,
                               0.854 * A0_DEFAULT)
        labels = cna_labels(crystal.positions, bonds)
        return (*defect_concentrations(labels, crystal.free_mask), stress(crystal),
                (energy(crystal) + kinetic_energy(crystal)) / crystal.n_atoms)

    l0 = grip_separation(build_crystal(3, 4, 3))
    for k, (record, crystal, _) in enumerate(md.checkpoints(params, (3, 4, 3), seed=4)):
        assert record.strain == k * 0.01
        assert abs(grip_separation(crystal) - (1 + record.strain) * l0) <= travel
        assert (record.c_fcc, record.c_hcp, record.c_unk, record.sigma_top,
                record.energy) == observables(crystal)
    assert k == 3


COUNTED_RUN = MDParams(strain_rate=0.2, target_strain=0.03, equilibration_steps=45)


def counted_tensile_run(monkeypatch, *names):
    """A short tensile run with the calls to md's ``names`` and the steps of
    each `integrate` call counted: (records, steps, {name: calls})."""
    calls, steps = {name: 0 for name in names}, []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(md, name, counting(name, getattr(md, name)))

    def counting_integrate(crystal, params, n_steps, **kwargs):
        steps.append(n_steps)
        return integrate(crystal, params, n_steps, **kwargs)

    monkeypatch.setattr(md, "integrate", counting_integrate)
    records = run_tensile(COUNTED_RUN, (3, 4, 3), seed=4)
    assert len(records) == 4
    return records, steps, calls


def test_each_step_evaluates_forces_once(monkeypatch):
    # one force evaluation per step, plus the first forces of the run; the
    # block each one gathers into is checked with every other pass below
    _, steps, calls = counted_tensile_run(monkeypatch, "_forces")
    assert calls["_forces"] == sum(steps) + 1


def test_each_checkpoint_gathers_its_pairs_once(monkeypatch):
    # every pass over a list -- one per force evaluation over (fi, fj), one per
    # energy at an equilibration chunk boundary and one per checkpoint for its
    # energy, stress and CNA shell over (i, j) -- gathers each of the list's
    # blocks once, in list order, into the block of the run's current
    # workspace: a new block comes only with a list build.  Lists of one
    # block, then blocks of 300 pairs, 8 to 16 per pass
    skin_lists, separations = md._skin_lists, md._separations
    for pair_block, blocks_per_pass in ((md._PAIR_BLOCK, 1), (300, 7)):
        monkeypatch.setattr(md, "_PAIR_BLOCK", pair_block)
        lists, gathers = [], []

        def building(crystal, work=None):
            lists.append(skin_lists(crystal, work))
            return lists[-1]

        def gathering(crystal, pairs, work=None):
            work = separations(crystal, pairs, work)
            i, _, fi, _, current = lists[-1]
            view = pairs[0]
            whole = view if view.base is None else view.base
            kind = "forces" if whole is fi else "skin" if whole is i else None
            gathers.append((kind, (view.ctypes.data - whole.ctypes.data) // view.itemsize,
                            view.size, whole.size, work[0].base is current[0].base))
            return work

        monkeypatch.setattr(md, "_skin_lists", building)
        monkeypatch.setattr(md, "_separations", gathering)
        records, steps, _ = counted_tensile_run(monkeypatch)
        passes, at = {"forces": 0, "skin": 0}, 0
        for kind, offset, size, total, in_current_block in gathers:
            assert kind and in_current_block and size <= pair_block
            assert offset == at  # each pass from the list's start, block after block
            at = offset + size
            if at == total:
                passes[kind], at = passes[kind] + 1, 0
        chunks = -(-COUNTED_RUN.equilibration_steps // md.RESCALE_INTERVAL)
        assert at == 0
        assert passes == {"forces": sum(steps) + 1, "skin": (chunks + 1) + len(records)}
        assert len(gathers) >= blocks_per_pass * sum(passes.values())


def test_force_evaluation_allocates_nothing_that_grows_with_the_pairs():
    # 4,000 atoms, 131,200 force pairs: the per-step gathers and coefficients
    # peaked at 7.6 MB traced; in the list's workspace only the forces and
    # their per-atom sums are allocated, 0.28 MB over 9 blocks
    crystal = build_crystal(10, 10, 10, temperature=0.05, seed=2)
    _, _, fi, fj, work = md._skin_lists(crystal)
    md._forces(crystal, (fi, fj), work)
    assert traced_peak_mb(lambda: md._forces(crystal, (fi, fj), work)) < 1.0


def test_unstable_integration_raises():
    # at strain_rate 0.4 this dt also puts two checkpoints on one step
    params = MDParams(dt=0.3, temperature=0.5, equilibration_steps=100,
                      strain_rate=0.01, target_strain=0.04)
    with pytest.raises(BlowUpError, match="drift"):
        run_tensile(params, (3, 4, 3), seed=0)


def test_an_impossible_strain_rate_fails_before_any_step(monkeypatch):
    # the grid needs no equilibrated crystal, whose steps would take about
    # 0.18 s at 4x6x4 and 12 s at 16^3 before the error
    calls = []
    monkeypatch.setattr(md, "integrate", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ParameterError, match="two checkpoints on one integration step"):
        run_tensile(MDParams(strain_rate=50), (4, 6, 4))
    assert calls == []


def test_non_finite_state_raises():
    crystal = two_atom_crystal(2 ** (1 / 6))
    crystal.velocities[0, 0] = np.nan
    with pytest.raises(BlowUpError, match="finite"):
        integrate(crystal, MDParams(), 3)


def test_nve_energy_and_momentum_conservation():
    params = MDParams(dt=0.005)
    crystal = build_crystal(4, 4, 4, temperature=0.05, seed=0, grip_planes=0)
    e0 = energy(crystal) + kinetic_energy(crystal)
    integrate(crystal, params, 1000)
    e1 = energy(crystal) + kinetic_energy(crystal)
    assert abs((e1 - e0) / e0) < 1e-4
    assert np.linalg.norm(crystal.velocities.sum(axis=0)) < 1e-10


def test_close_pair_blows_up():
    crystal = two_atom_crystal(0.3)
    with pytest.raises(BlowUpError):
        energy(crystal)


def test_params_validation():
    with pytest.raises(ParameterError):
        MDParams(target_strain=1.5)
    # a target off the checkpoint grid once ran to a neighbouring checkpoint
    for bad in (0.005, 0.015, 0.025):
        with pytest.raises(ParameterError, match="not a multiple of the checkpoint strain"):
            MDParams(target_strain=bad)
    for good in (0.0, 0.01, 0.07, 0.2, 1.0):  # 0.07 / 0.01 is 7.000000000000001
        assert MDParams(target_strain=good).target_strain == good
    for bad in (0.0, -0.1, math.nan, math.inf):
        for name in ("dt", "strain_rate"):
            with pytest.raises(ParameterError):
                MDParams(**{name: bad})
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ParameterError):
            MDParams(temperature=bad)


# --- stress --------------------------------------------------------------


def stretched(crystal, strain):
    out = crystal.copy()
    y = out.positions[:, 1]
    center = y.mean()
    out.positions[:, 1] = center + (1.0 + strain) * (y - center)
    return out


def fd_stress_oracle(crystal, delta=1e-5):
    """Central difference of potential energy under a rigid top-grip shift."""
    y = crystal.positions[:, 1]
    grips = ~crystal.free_mask
    top = grips & (y > y[grips].mean())
    energies = []
    for sign in (+1.0, -1.0):
        probe = crystal.copy()
        probe.positions[top, 1] += sign * delta
        energies.append(energy(probe))
    dU_dh = (energies[0] - energies[1]) / (2 * delta)
    area = float(crystal.box[0] * crystal.box[2])
    return dU_dh / area


def test_unstrained_stress_vanishes():
    crystal = build_crystal(4, 6, 4, temperature=0.0)
    assert abs(stress(crystal)) < 1e-6


@pytest.mark.parametrize("strain,sign", [(0.02, 1), (-0.02, -1)])
def test_stress_sign_and_energy_derivative(strain, sign):
    crystal = stretched(build_crystal(4, 6, 4, temperature=0.0), strain)
    sigma = stress(crystal)
    assert sign * sigma > 0
    assert sigma == pytest.approx(fd_stress_oracle(crystal), rel=1e-4)


def test_grip_observables_of_an_ungripped_crystal_are_errors():
    crystal = build_crystal(3, 4, 3, grip_planes=0)
    with pytest.raises(ParameterError, match="no grip layers"):
        grip_separation(crystal)
    with pytest.raises(ParameterError, match="no grip layers"):
        stress(crystal)


def test_grip_stress_takes_the_record_gather_in_bounded_memory():
    # 4,000 atoms, 161,200 skin pairs: re-gathering them from the skin list
    # inside grip_stress peaked at 15.4 MB traced; masking the record's gather
    # of the whole list to its top-grip pairs inside the cutoff peaks near 0.8 MB
    crystal = build_crystal(10, 10, 10, temperature=0.05, seed=2)
    i, j, _, _, work = md._skin_lists(crystal)
    assert traced_peak_mb(lambda: stress(crystal, (i, j), work)) < 3.0
    assert stress(crystal, (i, j), work) == rows_grip_stress(crystal, (i, j))


def test_energy_check_runs_in_the_list_workspace_in_bounded_memory():
    # 4,000 atoms, 161,200 skin pairs: gathering them into fresh arrays for
    # the energy peaked at 7.8 MB traced, in a whole-list workspace at 2.2 MB;
    # block by block only the energies of the pairs inside the cutoff grow
    # with the list, 1.6 MB
    crystal = build_crystal(10, 10, 10, temperature=0.05, seed=2)
    i, j, _, _, work = md._skin_lists(crystal)
    assert traced_peak_mb(lambda: potential_energy(crystal, (i, j), work)) < 4.0
    assert potential_energy(crystal, (i, j), work) == energy(crystal)


def test_a_paper_scale_list_holds_one_block_through_every_pass():
    # 4,000 atoms, 161,200 skin pairs.  With a whole-list workspace its
    # PairState held 14.5 MiB traced, 9.84 MiB of it the workspace, and an
    # energy check peaked at 2.24 MiB, a record at 5.08 MiB.  In one block of
    # _PAIR_BLOCK pairs: 5.65, 1.00, 1.58 and 3.06 MiB.  A step allocated only
    # its forces in either, 0.28 against 0.31 MiB.
    crystal = build_crystal(10, 10, 10, temperature=0.05, seed=2)
    params = MDParams()
    tracemalloc.start()
    try:
        state = integrate(crystal, params, 0)
        held_mib = tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()
    assert state.i.size == 161_200
    assert state.work[0].base.nbytes <= 2**20
    assert held_mib < 7.0
    assert state.work[0].base.nbytes == 64 * md._PAIR_BLOCK
    grip_speed = 0.5 * params.strain_rate * A0_DEFAULT
    assert traced_peak_mb(lambda: integrate(crystal, params, 1, grip_speed=grip_speed,
                                            state=state)) < 0.5
    assert traced_peak_mb(lambda: potential_energy(crystal, (state.i, state.j),
                                                   state.work)) < 1.9
    assert traced_peak_mb(lambda: md._record(crystal, state, 0.0)) < 4.0


def test_blocked_records_match_the_row_oracles(monkeypatch):
    # four checkpoints of a 3x4x3 run; the skin list of 4,680 pairs spans 16
    # blocks of 300
    whole = run_tensile(COUNTED_RUN, (3, 4, 3), seed=4)  # lists of one block
    small_blocks(monkeypatch)
    records = []
    for record, crystal, state in md.checkpoints(COUNTED_RUN, (3, 4, 3), seed=4):
        records.append(record)
        assert len(md._blocks((state.i, state.j))) >= 15
        labels = oracle_cna_labels(crystal.positions, crystal.box, crystal.periodic,
                                   md.CNA_CUTOFF)
        r2 = rows_cutoff_pairs(crystal)[3]
        energy = (rows_potential_energy(r2) + kinetic_energy(crystal)) / crystal.n_atoms
        assert (record.c_fcc, record.c_hcp, record.c_unk, record.sigma_top, record.energy) == (
            *defect_concentrations(labels, crystal.free_mask), rows_grip_stress(crystal), energy)
    assert records == whole


def test_checkpoints_stream_each_record_with_the_state_to_resume_from(monkeypatch):
    # the stream's records are run_tensile's; a draw runs only the steps up to
    # its checkpoint; and from a copy of the crystal and the state of checkpoint
    # k - 1, kept while the stream moves on, one integrate over the interval
    # and a record give checkpoint k's record bit for bit
    whole = run_tensile(COUNTED_RUN, (3, 4, 3), seed=4)
    drawn = []  # (n_steps, grip_speed) of each integrate call the stream makes

    def counting(crystal, params, n_steps, grip_speed=0.0, state=None):
        drawn.append((n_steps, grip_speed))
        return integrate(crystal, params, n_steps, grip_speed=grip_speed, state=state)

    monkeypatch.setattr(md, "integrate", counting)
    stream = md.checkpoints(COUNTED_RUN, (3, 4, 3), seed=4)
    assert drawn == []
    record, crystal, state = next(stream)
    assert sum(n for n, _ in drawn) == COUNTED_RUN.equilibration_steps
    assert {v for _, v in drawn} == {0.0}
    steps = md.checkpoint_steps(COUNTED_RUN, crystal)
    grip_speed = 0.5 * COUNTED_RUN.strain_rate * A0_DEFAULT
    records = [record]
    for k in range(1, len(steps)):
        kept, resume = crystal.copy(), state
        record, crystal, state = next(stream)
        records.append(record)
        assert sum(n for n, _ in drawn) == COUNTED_RUN.equilibration_steps + steps[k]
        replayed = integrate(kept, COUNTED_RUN, steps[k] - steps[k - 1],
                             grip_speed=grip_speed, state=resume)
        assert md._record(kept, replayed, k * md.CHECKPOINT_DSTRAIN) == record
    assert next(stream, None) is None
    assert records == whole


# --- tensile runs --------------------------------------------------------


FAST = MDParams(strain_rate=0.2, target_strain=0.20, temperature=0.0,
                equilibration_steps=20)


def test_zero_target_gives_single_perfect_record():
    params = MDParams(target_strain=0.0, temperature=0.0, equilibration_steps=10)
    records = run_tensile(params, (2, 4, 2))
    assert len(records) == 1
    assert records[0].strain == 0.0
    assert records[0].c_hcp == 0.0 and records[0].c_unk == 0.0
    assert records[0].c_fcc == 1.0


def test_checkpoint_grid_arithmetic():
    records = run_tensile(FAST, (2, 4, 2))
    strains = [r.strain for r in records]
    assert strains == pytest.approx([0.01 * k for k in range(21)])
    assert all(b.strain > a.strain for a, b in zip(records, records[1:]))


def test_checkpoint_grid_survives_doubling_nx():
    small = run_tensile(FAST, (2, 4, 2))
    wide = run_tensile(FAST, (4, 4, 2))
    assert [r.strain for r in small] == [r.strain for r in wide]
    assert small[0].c_unk == 0.0 and wide[0].c_unk == 0.0


def test_tensile_run_is_deterministic():
    params = MDParams(strain_rate=0.2, target_strain=0.05, temperature=0.05,
                      equilibration_steps=50)
    a = run_tensile(params, (2, 4, 2), seed=9)
    b = run_tensile(params, (2, 4, 2), seed=9)
    assert a == b


def test_strain_tracks_grip_separation():
    crystal = build_crystal(2, 4, 2, temperature=0.0)
    l0 = grip_separation(crystal)
    params = MDParams(temperature=0.0)
    v_grip = 0.5 * 0.2 * A0_DEFAULT
    integrate(crystal, params, 100, grip_speed=v_grip)
    expect = l0 + 2 * v_grip * 100 * params.dt
    assert grip_separation(crystal) == pytest.approx(expect, rel=1e-12)


def test_defects_nucleate_at_twenty_percent_strain():
    records = run_tensile(MDParams(), (4, 6, 4), seed=1)
    assert records[-1].c_unk > 0
