"""Common neighbor analysis: signatures, labels, and defect bookkeeping."""

import math
import tracemalloc
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hs
from oracles import bond_signature, dense_table, hcp_positions, oracle_cna_labels
from scipy.spatial.transform import Rotation

from gridsweep import cna
from gridsweep.cna import (
    FCC,
    HCP,
    UNK,
    cna_labels,
    defect_concentrations,
)
from gridsweep.md import (
    A0_DEFAULT,
    CNA_CUTOFF,
    CUTOFF,
    SKIN,
    _separations,
    build_crystal,
    fcc_positions,
    neighbor_pairs,
)

FCC_CUTOFF = 0.854  # between the first (0.707a) and second (a) FCC shells
HCP_CUTOFF = 0.854 * math.sqrt(2.0)  # same ratio for nn distance 1


def labels_within(pos, box, periodic, cutoff):
    """CNA labels of the bonds shorter than cutoff."""
    return cna_labels(pos, neighbor_pairs(pos, box, periodic, cutoff))


def periodic_fcc(n=4, a=1.0):
    pos = fcc_positions(n, n, n, a)
    box = np.array([n * a] * 3)
    return pos, box


# --- coordination --------------------------------------------------------


def test_fcc_coordination_is_twelve():
    pos, box = periodic_fcc()
    i, j = neighbor_pairs(pos, box, (True, True, True), FCC_CUTOFF)
    assert (np.bincount(i, minlength=len(pos)) + np.bincount(j, minlength=len(pos)) == 12).all()


# --- signatures (of the general reference CNA) ---------------------------


def test_every_fcc_bond_is_4_2_1():
    pos, box = periodic_fcc()
    adj = dense_table(pos, box, (True, True, True), FCC_CUTOFF)
    neighbors = [np.flatnonzero(adj[i]) for i in range(adj.shape[0])]
    for j in neighbors[0]:
        assert bond_signature(0, int(j), adj, neighbors) == (4, 2, 1)


def test_hcp_bonds_split_six_six():
    pos, box = hcp_positions(4, 3, 3)
    adj = dense_table(pos, box, (True, True, True), HCP_CUTOFF)
    neighbors = [np.flatnonzero(adj[i]) for i in range(adj.shape[0])]
    sigs = [bond_signature(0, int(j), adj, neighbors) for j in neighbors[0]]
    assert sorted(sigs).count((4, 2, 1)) == 6
    assert sorted(sigs).count((4, 2, 2)) == 6


# --- labels --------------------------------------------------------------


def test_periodic_fcc_is_all_fcc():
    pos, box = periodic_fcc()
    labels = labels_within(pos, box, (True, True, True), FCC_CUTOFF)
    assert (labels == FCC).all()


def test_ideal_hcp_is_all_hcp():
    pos, box = hcp_positions(4, 3, 3)
    labels = labels_within(pos, box, (True, True, True), HCP_CUTOFF)
    assert (labels == HCP).all()


def test_sparse_atoms_are_unknown():
    pos = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    labels = labels_within(pos, np.array([10.0] * 3), (False, False, False), 1.0)
    assert (labels == UNK).all()


def test_labels_are_rotation_and_translation_invariant():
    # free cluster: interior atoms FCC, surface atoms UNK; distances only
    pos = fcc_positions(4, 4, 4, 1.0)
    box = np.array([100.0] * 3)
    reference = labels_within(pos, box, (False,) * 3, FCC_CUTOFF)
    assert (reference == FCC).sum() > 0
    assert (reference == UNK).sum() > 0
    for rot in Rotation.random(10, rng=np.random.default_rng(7)):
        moved = pos @ rot.as_matrix().T + np.array([3.0, -1.0, 0.5])
        labels = labels_within(moved, box, (False,) * 3, FCC_CUTOFF)
        assert np.array_equal(labels, reference)


def test_label_crystal_default_cutoff_sees_perfect_lattice():
    crystal = build_crystal(4, 4, 4, temperature=0.0)
    labels = labels_within(crystal.positions, crystal.box, crystal.periodic, CNA_CUTOFF)
    conc = defect_concentrations(labels, crystal.free_mask)
    assert conc == (1.0, 0.0, 0.0)


def _lattice(kind):
    """(positions, box, periodic, a) of a small perfect lattice; a is the
    FCC lattice constant with the same nearest-neighbour distance."""
    if kind == "fcc":
        pos, box = periodic_fcc(3)
        return pos, box, (True,) * 3, 1.0
    if kind == "hcp":
        pos, box = hcp_positions(4, 3, 3)
        return pos, box, (True,) * 3, math.sqrt(2.0)
    crystal = build_crystal(3, 4, 3)  # gripped slab, open along y
    return crystal.positions, crystal.box, crystal.periodic, A0_DEFAULT


@settings(max_examples=40, deadline=None)
@given(kind=hs.sampled_from(["fcc", "hcp", "slab"]),
       axis=hs.integers(0, 2),
       strain=hs.floats(-0.05, 0.12),
       jitter=hs.floats(0.0, 0.03),
       seed=hs.integers(0, 2**32 - 1))
def test_labels_match_full_signature_oracle(kind, axis, strain, jitter, seed):
    # jitter stays within 0.03 a: the oracle's longest-chain search is
    # exponential in the disorder of a neighbour shell
    pos, box, periodic, a = _lattice(kind)
    pos = pos + jitter * a * np.random.default_rng(seed).uniform(-1.0, 1.0, pos.shape)
    pos[:, axis] *= 1.0 + strain
    box = box.copy()
    box[axis] *= 1.0 + strain
    cutoff = 0.854 * a
    expected = oracle_cna_labels(pos, box, periodic, cutoff)
    assert np.array_equal(labels_within(pos, box, periodic, cutoff), expected)
    with patch.object(cna, "CNA_BLOCK", 5):  # many blocks, the last one short
        assert np.array_equal(labels_within(pos, box, periodic, cutoff), expected)


def test_record_labels_run_in_bounded_memory():
    # 4,000 atoms, 3,600 12-coordinated: classifying every centre at once
    # peaked at 19.0 MB traced, 512 at a time at 4.6 MB; CNA_BLOCK (128)
    # centres at a time peak near 2.6 MB
    crystal = build_crystal(10, 10, 10, temperature=0.05, seed=2)
    skin = neighbor_pairs(crystal.positions, crystal.box, crystal.periodic, CUTOFF + SKIN)
    _, _, r2, _ = _separations(crystal, skin)
    shell = r2 < CNA_CUTOFF * CNA_CUTOFF
    tracemalloc.start()
    try:
        labels = cna_labels(crystal.positions, (skin[0][shell], skin[1][shell]))
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 8.0
    assert np.bincount(labels).tolist() == [3600, 0, 400]  # the open y faces are UNK


# --- defect bookkeeping --------------------------------------------------


def test_counts_and_concentrations_closed_form():
    labels = np.array([FCC, FCC, HCP, UNK])
    assert defect_concentrations(labels, np.ones(4, dtype=bool)) == (0.5, 0.25, 0.25)


def test_grip_atoms_are_excluded():
    labels = np.array([FCC, HCP, UNK, FCC])
    free = np.array([True, True, True, False])
    assert defect_concentrations(labels, free) == (1 / 3, 1 / 3, 1 / 3)


def test_concentrations_sum_to_one_exactly():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 3, size=97)
    free = rng.random(97) >= 0.3
    c = defect_concentrations(labels, free)
    assert sum(c) == 1.0
    # each fraction is its label's count over the free atoms, divided as ints
    n_free = int(free.sum())
    assert c == tuple(int(np.sum(labels[free] == k)) / n_free for k in (FCC, HCP, UNK))
