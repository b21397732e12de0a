"""MD payload: lattice construction, integration, tensile runs, stress."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from oracles import (
    dense_pairs,
    oracle_verlet,
    rows_compute_forces,
    rows_cutoff_pairs,
    rows_grip_stress,
    rows_pair_forces,
)

from gridsweep import md
from gridsweep.cna import cna_labels, defect_concentrations
from gridsweep.errors import BlowUpError, ParameterError
from gridsweep.md import (
    A0_DEFAULT,
    Crystal,
    MDParams,
    build_crystal,
    equilibrate,
    fcc_positions,
    grip_separation,
    grip_stress,
    integrate,
    kinetic_energy,
    neighbor_pairs,
    potential_energy,
    run_tensile,
)


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
    assert crystal.grip_mask.sum() == 3 * crystal.n_atoms // 4
    assert np.all(crystal.velocities[crystal.grip_mask] == 0)
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


def assert_same_pairs(pos, box, periodic, rmax):
    i, j = neighbor_pairs(pos, box, periodic, rmax)
    di, dj = dense_pairs(pos, box, periodic, rmax)
    assert np.array_equal(i, di) and np.array_equal(j, dj)


# periodic axes of 1, 1, 1, 2, 3 and 7 cells (the first narrower than rmax)
@pytest.mark.parametrize("box_over_rmax", [0.6, 1.2, 1.5, 2.5, 3.5, 7.5])
def test_neighbor_pairs_match_dense_scan(box_over_rmax):
    rng = np.random.default_rng(int(10 * box_over_rmax))
    rmax = 1.3
    box = rmax * box_over_rmax * np.array([1.0, 1.05, 0.95])
    for periodic in itertools.product((False, True), repeat=3):
        # coordinates spread over three box widths: negative and out-of-box too
        pos = rng.uniform(-1.0, 2.0, size=(60, 3)) * box
        assert_same_pairs(pos, box, periodic, rmax)


@pytest.mark.parametrize("rmax", [0.854 * A0_DEFAULT, 2.5, 2.9])
def test_neighbor_pairs_match_dense_scan_on_lattices(rmax):
    slab = build_crystal(4, 6, 4, temperature=0.05, seed=2)
    assert_same_pairs(slab.positions, slab.box, slab.periodic, rmax)
    bulk = build_crystal(3, 3, 3, grip_planes=0)
    assert_same_pairs(bulk.positions, bulk.box, bulk.periodic, rmax)


# --- pair kernel ---------------------------------------------------------


# slab: gripped, 4 cells wide in x and z; bulk: periodic, 3 cells wide, so
# the cutoff passes L/2; narrow: periodic, 4 cells wide, so skin pairs listed
# below rmax = 2.9 drift past L/2 (3.1 unstrained) when jittered and compressed
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
    # the integrator's skin list, built before the atoms moved
    skin = neighbor_pairs(crystal.positions, crystal.box, crystal.periodic, md.CUTOFF + md.SKIN)
    rng = np.random.default_rng(seed)
    crystal.positions += rng.uniform(-jitter, jitter, crystal.positions.shape)
    crystal.positions[:, axis] *= 1.0 + strain
    crystal.box[axis] *= 1.0 + strain

    n = crystal.n_atoms
    i, j, delta, r2 = md._cutoff_pairs(crystal)
    want_forces, want_potential, want_r2_min = rows_compute_forces(crystal)
    assert np.array_equal(md._pair_forces(n, i, j, delta, r2), want_forces)
    assert (potential_energy(crystal), r2.min()) == (want_potential, want_r2_min)
    assert np.array_equal(md._pair_forces(n, *md._cutoff_pairs(crystal, skin)),
                          rows_pair_forces(n, *rows_cutoff_pairs(crystal, skin)))
    if grip_planes:
        assert grip_stress(crystal) == rows_grip_stress(crystal)
        assert grip_stress(crystal, skin) == rows_grip_stress(crystal, skin)


@pytest.mark.parametrize("evaluate", [potential_energy, rows_compute_forces,
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


def test_ungripped_forces_use_the_skin_list_itself():
    params = MDParams()
    crystal = build_crystal(3, 3, 3, temperature=0.1, seed=5, grip_planes=0)
    reference = crystal.copy()
    state = integrate(crystal, params, 50)
    assert np.array_equal(state.fi, state.i) and np.array_equal(state.fj, state.j)
    assert potential_energy(crystal, (state.i, state.j)) == oracle_verlet(
        reference, params.dt, 50)
    assert np.array_equal(crystal.positions, reference.positions)
    assert np.array_equal(crystal.velocities, reference.velocities)


def test_checkpoint_record_matches_public_observables():
    params = MDParams(strain_rate=0.2, target_strain=0.01, equilibration_steps=60)
    records = run_tensile(params, (3, 4, 3), seed=4)

    def observables(crystal):
        labels = cna_labels(crystal.positions, crystal.box, crystal.periodic, 0.854 * A0_DEFAULT)
        return (*defect_concentrations(labels, crystal.grip_mask),
                grip_stress(crystal),
                (potential_energy(crystal) + kinetic_energy(crystal)) / crystal.n_atoms)

    crystal = build_crystal(3, 4, 3, temperature=params.temperature, seed=4)
    state = equilibrate(crystal, params)
    expected = [observables(crystal)]
    grip_speed = 0.5 * params.strain_rate * A0_DEFAULT
    n_steps = int(round(0.01 * grip_separation(crystal) / (2.0 * grip_speed * params.dt)))
    integrate(crystal, params, n_steps, grip_speed=grip_speed, state=state)
    expected.append(observables(crystal))
    got = [(r.c_fcc, r.c_hcp, r.c_unk, r.sigma_top, r.energy) for r in records]
    assert got == expected


def test_each_checkpoint_gathers_its_pairs_once(monkeypatch):
    # cutoff gathers: one per step plus the first forces, one energy per
    # equilibration chunk boundary, and per checkpoint one for the energy and
    # CNA shell plus one inside grip_stress; all of them on the skin list
    gathered, steps = [], []
    gather = md._cutoff_pairs

    def counting_gather(crystal, pairs=None):
        gathered.append(pairs is not None)
        return gather(crystal, pairs)

    def counting_integrate(crystal, params, n_steps, **kwargs):
        steps.append(n_steps)
        return integrate(crystal, params, n_steps, **kwargs)

    monkeypatch.setattr(md, "_cutoff_pairs", counting_gather)
    monkeypatch.setattr(md, "integrate", counting_integrate)
    params = MDParams(strain_rate=0.2, target_strain=0.03, equilibration_steps=45)
    records = run_tensile(params, (3, 4, 3), seed=4)
    chunks = -(-params.equilibration_steps // md.RESCALE_INTERVAL)
    assert len(records) == 4
    assert len(gathered) == sum(steps) + 1 + (chunks + 1) + 2 * len(records)
    assert all(gathered)


def test_unstable_integration_raises():
    params = MDParams(dt=0.3, temperature=0.5, equilibration_steps=100,
                      strain_rate=0.4, target_strain=0.04)
    with pytest.raises(BlowUpError, match="drift"):
        run_tensile(params, (3, 4, 3), seed=0)


def test_non_finite_state_raises():
    crystal = two_atom_crystal(2 ** (1 / 6))
    crystal.velocities[0, 0] = np.nan
    with pytest.raises(BlowUpError, match="finite"):
        integrate(crystal, MDParams(), 3)


def test_nve_energy_and_momentum_conservation():
    params = MDParams(dt=0.005)
    crystal = build_crystal(4, 4, 4, temperature=0.05, seed=0, grip_planes=0)
    e0 = potential_energy(crystal) + kinetic_energy(crystal)
    integrate(crystal, params, 1000)
    e1 = potential_energy(crystal) + kinetic_energy(crystal)
    assert abs((e1 - e0) / e0) < 1e-4
    assert np.linalg.norm(crystal.velocities.sum(axis=0)) < 1e-10


def test_close_pair_blows_up():
    crystal = two_atom_crystal(0.3)
    with pytest.raises(BlowUpError):
        potential_energy(crystal)


def test_params_validation():
    with pytest.raises(ParameterError):
        MDParams(dt=0.0)
    with pytest.raises(ParameterError):
        MDParams(target_strain=1.5)
    for rate in (0.0, -0.1):
        with pytest.raises(ParameterError):
            MDParams(strain_rate=rate)


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
    top = crystal.grip_mask & (y > y[crystal.grip_mask].mean())
    energies = []
    for sign in (+1.0, -1.0):
        probe = crystal.copy()
        probe.positions[top, 1] += sign * delta
        energies.append(potential_energy(probe))
    dU_dh = (energies[0] - energies[1]) / (2 * delta)
    area = float(crystal.box[0] * crystal.box[2])
    return dU_dh / area


def test_unstrained_stress_vanishes():
    crystal = build_crystal(4, 6, 4, temperature=0.0)
    assert abs(grip_stress(crystal)) < 1e-6


@pytest.mark.parametrize("strain,sign", [(0.02, 1), (-0.02, -1)])
def test_stress_sign_and_energy_derivative(strain, sign):
    crystal = stretched(build_crystal(4, 6, 4, temperature=0.0), strain)
    sigma = grip_stress(crystal)
    assert sign * sigma > 0
    assert sigma == pytest.approx(fd_stress_oracle(crystal), rel=1e-4)


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
