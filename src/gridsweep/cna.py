"""Common neighbor analysis: per-atom local-structure classification.

For every bonded pair, the signature (ncn, nb, lcb) counts the common
neighbors of the pair, the bonds among them, and the longest continuous
bond chain among them.  An atom with 12 neighbors, all of whose bonds are
(4,2,1), sits in FCC order; 6 x (4,2,1) + 6 x (4,2,2) is HCP (a stacking
fault inside an FCC crystal); everything else is UNK, which covers
surfaces, dislocation cores and atom-vacancy perturbations.

Labels depend only on the bond list the caller passes (Honeycutt & Andersen,
J. Phys. Chem. 91, 4950, 1987); bonds within a distance cutoff make them
invariant under rigid rotation and translation (on non-periodic data).
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

FCC = 0
HCP = 1
UNK = 2

#: centre atoms classified at once: the (m, 12, 12) shell arrays, a few kB per
#: centre, stay bounded, and the default 384-atom crystal is one block
CNA_BLOCK = 512


def cna_labels(positions, pairs) -> np.ndarray:
    """Per-atom labels FCC/HCP/UNK of ``positions`` via the signatures of the
    bonds ``pairs``, a sorted (i, j) list as `md.neighbor_pairs` returns it.

    Only 12-coordinated atoms can be FCC or HCP, and only the signatures
    (4,2,1) and (4,2,2) count, so each such atom is classified from the
    adjacency of its 12-atom shell: the common neighbours of the bond to
    shell atom p are the shell atoms bonded to p, and with 4 common
    neighbours and 2 bonds among them the longest chain is 2 exactly when
    the two bonds share an atom.  Centres are classified in blocks of
    CNA_BLOCK; each label depends on its own shell only.
    """
    n = len(positions)
    i, j = pairs
    labels = np.full(n, UNK, dtype=int)
    degree = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    centre = np.flatnonzero(degree == 12)

    # neighbours of each atom in owner order, from the pair list in both
    # orientations; shell adjacency is looked up in the sorted pair keys i*n + j
    owner, other = np.concatenate([i, j]), np.concatenate([j, i])
    neighbours = other[np.argsort(owner, kind="stable")]
    first = np.cumsum(degree) - degree
    keys = i * n + j
    for start in range(0, centre.size, CNA_BLOCK):
        block = centre[start:start + CNA_BLOCK]
        shell = neighbours[first[block, None] + np.arange(12)]  # (m, 12)
        a, b = shell[:, :, None], shell[:, None, :]
        probe = np.minimum(a, b) * n + np.maximum(a, b)
        adj = keys[np.minimum(np.searchsorted(keys, probe), keys.size - 1)] == probe  # (m, 12, 12)

        common = adj.sum(axis=2)  # ncn of the bond to each shell atom p
        adj_i = adj.astype(np.int64)
        # inner[p, q]: shell atoms bonded to both p and q, which for a common
        # neighbour q of bond p counts q's bonds among p's common neighbours
        inner = adj_i @ adj_i
        n_bonds = (adj_i * inner).sum(axis=2) // 2
        max_degree = np.where(adj, inner, 0).max(axis=2)  # of two bonds: 2 iff they share an atom
        is_42 = (common == 4) & (n_bonds == 2)
        n_fcc = (is_42 & (max_degree == 1)).sum(axis=1)
        n_hcp = (is_42 & (max_degree == 2)).sum(axis=1)
        labels[block[n_fcc == 12]] = FCC
        labels[block[(n_fcc == 6) & (n_hcp == 6)]] = HCP
    return labels


def defect_counts(labels, grip_mask=None) -> tuple[int, int, int]:
    """(n_fcc, n_hcp, n_unk) over non-grip atoms."""
    labels = np.asarray(labels)
    if grip_mask is None:
        grip_mask = np.zeros(labels.shape, dtype=bool)
    grip_mask = np.asarray(grip_mask, dtype=bool)
    if labels.shape != grip_mask.shape:
        raise ParameterError("labels and grip mask must have the same length")
    counted = labels[~grip_mask]
    if counted.size == 0:
        raise ParameterError("all atoms are gripped; nothing to count")
    return (int(np.sum(counted == FCC)), int(np.sum(counted == HCP)),
            int(np.sum(counted == UNK)))


def defect_concentrations(labels, grip_mask=None) -> tuple[float, float, float]:
    """(c_fcc, c_hcp, c_unk) fractions over non-grip atoms; counts sum exactly
    to the total, so the exact quotients behind these correctly rounded floats
    sum exactly to 1."""
    n_fcc, n_hcp, n_unk = defect_counts(labels, grip_mask)
    total = n_fcc + n_hcp + n_unk
    return n_fcc / total, n_hcp / total, n_unk / total

