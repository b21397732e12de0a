"""Dense reference implementations that the fast code is checked against.

``dense_pairs`` is the all-pairs min-image scan that ``md.neighbor_pairs``
must reproduce element for element.  ``bond_signature`` and
``oracle_cna_labels`` are the general common-neighbour analysis: the full
(ncn, nb, lcb) signature of every bond, with the longest bond chain found
by exhaustive search.  The search is exponential in the number of bonds
among the common neighbours, so keep oracle inputs close to a lattice.
``rows_compute_forces`` and ``rows_grip_stress`` run the LJ pair kernel on
(m, 3) rows -- row gathers, an einsum for r2 and one bincount per axis --
with their own LJ formulas (``rows_lj_coeff``, ``rows_potential_energy``),
and the (3, m) kernel in ``gridsweep.md`` must match them bit for bit.
``cutoff_list`` is a fresh search at the LJ cutoff, for the tests to hand to
the observables, which take their pairs from the caller.
``oracle_verlet`` integrates with forces from a fresh search over all pairs
at every step; ``md.integrate``, which skips grip-grip pairs, must follow
its trajectory bit for bit.
``oracle_speedup_table`` and ``oracle_segment_regimes`` are the per-task
trace rescans (one pass over the events for each task's window, one more
for its regimes, and a scan of the completion times per regime rate) that
``gridsim``'s one-pass accounting must reproduce exactly, and
``segment_regimes`` is the one-task query of that accounting.
``oracle_write_trace_csv`` writes trace.csv one ``csv.writer`` row per event;
``gridsim.write_trace_csv``'s bulk formatting must give the same bytes.
``hcp_positions`` builds the ideal HCP lattice the CNA must label all HCP,
and ``weibull_log_likelihood`` is the closed-form likelihood a Weibull fit
must maximise.  ``calibrate_lognormal`` is the search that produced the
log-normal pairs of ``hosts.PRESETS``, and ``gibrat_trajectory`` the
multiplicative growth law behind the log-normal host attributes.
``oracle_fit_weibull`` is the one-sample scalar Newton/bisection Weibull fit
and ``oracle_ks_bootstrap`` the resample-by-resample parametric bootstrap
loop; ``gridsweep.stats``'s row-wise solver and all-at-once bootstrap must
reproduce both bit for bit.  ``oracle_pearson_point`` is a sample's exact
(beta1, beta2) in rational arithmetic, which the float moments must approach.
"""

import math
from fractions import Fraction

import numpy as np

from gridsweep.cna import FCC, HCP, UNK
from gridsweep.errors import BlowUpError, DegenerateSampleError, DomainError, ParameterError
from gridsweep.gridsim import (
    COMPLETE,
    DISPATCH,
    HOST_DOWN,
    TRACE_CSV_HEADER,
    RegimeSegmentation,
    SpeedupRow,
)
from gridsweep.hosts import snap_cpus
from gridsweep.md import CUTOFF, neighbor_pairs
from gridsweep.outputs import write_csv
from gridsweep.stats import FitResult, fit_normal


def dense_table(positions, box, periodic, cutoff):
    """Boolean adjacency matrix of atoms within cutoff (min-image on periodic axes)."""
    positions = np.asarray(positions, dtype=float)
    box = np.asarray(box, dtype=float)
    delta = positions[:, None, :] - positions[None, :, :]
    for ax in range(3):
        if periodic[ax]:
            delta[:, :, ax] -= box[ax] * np.rint(delta[:, :, ax] / box[ax])
    r2 = np.einsum("ijk,ijk->ij", delta, delta)
    np.fill_diagonal(r2, np.inf)
    return r2 < cutoff * cutoff


def dense_pairs(positions, box, periodic, rmax):
    """Upper-triangle (i, j) index arrays of pairs within rmax, row-major."""
    iu, ju = np.triu_indices(len(positions), k=1)
    close = dense_table(positions, box, periodic, rmax)[iu, ju]
    return iu[close], ju[close]


def hcp_positions(nx, ny, nz, a=1.0):
    """Ideal HCP block (c/a = sqrt(8/3)) in an orthorhombic cell; returns
    (positions, box) suitable for a fully periodic CNA check."""
    if min(nx, ny, nz) < 2:
        raise ParameterError("nx, ny, nz must all be >= 2")
    c = a * math.sqrt(8.0 / 3.0)
    cell = np.array([a, a * math.sqrt(3.0), c])
    basis = np.array([
        [0.0, 0.0, 0.0],
        [0.5, 0.5, 0.0],
        [0.5, 5.0 / 6.0, 0.5],
        [0.0, 1.0 / 3.0, 0.5],
    ])
    cells = np.stack(np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                                 indexing="ij"), axis=-1).reshape(-1, 3)
    pos = (cells[:, None, :] + basis[None, :, :]).reshape(-1, 3) * cell
    box = cell * np.array([nx, ny, nz])
    return pos, box


def _longest_chain(nodes, adj):
    """Longest path (in bonds) in the common-neighbour subgraph, brute force."""
    index = {a: i for i, a in enumerate(nodes)}
    edges = [[] for _ in nodes]
    n_edges = 0
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if adj[a, b]:
                edges[i].append(index[b])
                edges[index[b]].append(i)
                n_edges += 1
    if n_edges == 0:
        return 0
    best = 1

    def dfs(v, visited_edges, length):
        nonlocal best
        best = max(best, length)
        for w in edges[v]:
            key = (min(v, w), max(v, w))
            if key not in visited_edges:
                visited_edges.add(key)
                dfs(w, visited_edges, length + 1)
                visited_edges.remove(key)

    for start in range(len(nodes)):
        if edges[start]:
            dfs(start, set(), 0)
    return best


def bond_signature(i, j, adj, neighbors):
    """(ncn, nb, lcb) signature of the bond i-j."""
    common = [a for a in neighbors[i] if adj[j, a]]
    nb = 0
    for x in range(len(common)):
        for y in range(x + 1, len(common)):
            if adj[common[x], common[y]]:
                nb += 1
    return (len(common), nb, _longest_chain(common, adj))


def oracle_cna_labels(positions, box, periodic, cutoff):
    """FCC/HCP/UNK from the full signature of every bond of each atom."""
    adj = dense_table(positions, box, periodic, cutoff)
    n = adj.shape[0]
    neighbors = [np.flatnonzero(adj[i]) for i in range(n)]
    labels = np.full(n, UNK, dtype=int)
    for i in range(n):
        if len(neighbors[i]) != 12:
            continue
        sigs = [bond_signature(i, int(j), adj, neighbors) for j in neighbors[i]]
        if sigs.count((4, 2, 1)) == 12:
            labels[i] = FCC
        elif sigs.count((4, 2, 1)) == 6 and sigs.count((4, 2, 2)) == 6:
            labels[i] = HCP
    return labels


def _min_image(vec, box, periodic):
    for ax in range(3):
        if periodic[ax]:
            L = box[ax]
            vec[:, ax] -= L * np.rint(vec[:, ax] / L)
    return vec


def cutoff_list(crystal):
    """The sorted (i, j) pairs inside the LJ cutoff, from a fresh search."""
    return neighbor_pairs(crystal.positions, crystal.box, crystal.periodic, CUTOFF)


def rows_cutoff_pairs(crystal, pairs=None):
    """(i, j, delta as (m, 3), r2) of the listed or searched pairs inside the cutoff."""
    pos = crystal.positions
    i, j = cutoff_list(crystal) if pairs is None else pairs
    delta = np.take(pos, i, axis=0)
    delta -= np.take(pos, j, axis=0)
    _min_image(delta, crystal.box, crystal.periodic)
    r2 = np.einsum("ij,ij->i", delta, delta)
    if r2.size and r2.min() < 0.5 ** 2:
        raise BlowUpError(
            f"atom pair at r = {math.sqrt(r2.min()):.3g} < 0.5 sigma; dt too large?")
    inside = np.flatnonzero(r2 < CUTOFF * CUTOFF)
    return i.take(inside), j.take(inside), delta.take(inside, axis=0), r2.take(inside)


def rows_lj_coeff(r2):
    """LJ dU/dr * (1/r) = 24 (2 r^-12 - r^-6) / r^2 per squared separation
    (the shift drops out of the derivative), in the kernel's operation order."""
    inv_r6 = (1.0 / r2) ** 3
    return 24.0 * (2.0 * inv_r6**2 - inv_r6) / r2


def rows_potential_energy(r2):
    """The sum of U(r) - U(CUTOFF), U = 4 (r^-12 - r^-6), over the squared
    separations ``r2``, all inside the cutoff, in their order."""
    inv_r6 = (1.0 / r2) ** 3
    shift = 4.0 * ((1.0 / CUTOFF) ** 12 - (1.0 / CUTOFF) ** 6)
    return float(np.sum(4.0 * (inv_r6**2 - inv_r6) - shift))


def rows_pair_forces(n, i, j, delta, r2):
    fpair = rows_lj_coeff(r2)[:, None] * delta
    forces = np.empty((n, 3))
    for ax in range(3):
        forces[:, ax] = (np.bincount(i, weights=fpair[:, ax], minlength=n)
                         - np.bincount(j, weights=fpair[:, ax], minlength=n))
    return forces


def rows_compute_forces(crystal):
    i, j, delta, r2 = rows_cutoff_pairs(crystal)
    forces = rows_pair_forces(crystal.n_atoms, i, j, delta, r2)
    return forces, rows_potential_energy(r2), float(r2.min()) if r2.size else math.inf


def rows_grip_stress(crystal, pairs=None):
    grips = ~crystal.free_mask
    y = crystal.positions[:, 1]
    top = grips & (y > y[grips].mean())
    free = crystal.free_mask
    i, j, delta, r2 = rows_cutoff_pairs(crystal, pairs)
    f_y = rows_lj_coeff(r2) * delta[:, 1]
    f_y = np.concatenate([f_y[top[i] & free[j]], -f_y[top[j] & free[i]]])
    return -float(np.sum(f_y)) / float(crystal.box[0] * crystal.box[2])


def oracle_verlet(crystal, dt, n_steps, grip_speed=0.0):
    """Plain velocity-Verlet in place: every step takes all forces from a fresh
    search over all pairs, and the free atoms alone get kicked.  Returns the
    potential energy after the last step."""
    side = crystal.grip_side
    crystal.velocities[side > 0] = [0.0, grip_speed, 0.0]
    crystal.velocities[side < 0] = [0.0, -grip_speed, 0.0]
    free = side == 0
    per = np.asarray(crystal.periodic)
    forces, potential, _ = rows_compute_forces(crystal)
    for _ in range(n_steps):
        crystal.velocities[free] += 0.5 * dt * forces[free]
        crystal.positions += dt * crystal.velocities
        crystal.positions[:, per] %= crystal.box[per]
        forces, potential, _ = rows_compute_forces(crystal)
        crystal.velocities[free] += 0.5 * dt * forces[free]
    return potential


def _task_by_name(trace, task_name):
    for t in trace.tasks:
        if t.name == task_name:
            return t
    raise ParameterError(f"unknown task {task_name!r}")


def _task_window(trace, task):
    """(first dispatch, last completion); raises if the task never finished."""
    first_dispatch = None
    last_complete = None
    n_complete = 0
    for e in trace.events:
        if e.task != task.name:
            continue
        if e.kind == DISPATCH and first_dispatch is None:
            first_dispatch = e.time
        elif e.kind == COMPLETE:
            last_complete = e.time
            n_complete += 1
    if n_complete != task.n_jobs or first_dispatch is None:
        raise ParameterError(
            f"task {task.name!r} incomplete: {n_complete}/{task.n_jobs} jobs done")
    return first_dispatch, last_complete


def oracle_task_makespan(trace, task_name):
    """T_dg of one task: first dispatch to last completion, seconds."""
    task = _task_by_name(trace, task_name)
    start, end = _task_window(trace, task)
    return end - start


def _task_row(trace, t):
    """A task's T_seq (n_jobs x t_job_ref_s) and T_dg (its makespan)."""
    return SpeedupRow(t.name, t.t_job_ref_s, t.n_jobs, t.n_jobs * t.t_job_ref_s,
                      oracle_task_makespan(trace, t.name))


def oracle_speedup_table(trace):
    """T_seq / T_dg per task in published-table order, then Subtotal and TOTAL."""
    shared = [_task_row(trace, t) for t in trace.tasks if t.mode == "shared"]
    dedicated = [_task_row(trace, t) for t in trace.tasks if t.mode == "dedicated"]
    shared_dg = max((r.t_dg_s for r in shared), default=0.0)
    subtotal = [SpeedupRow("Subtotal", 0.0, sum(r.n_jobs for r in shared),
                           sum(r.t_seq_s for r in shared), shared_dg)] if shared else []
    t_dg = shared_dg + sum(r.t_dg_s for r in dedicated)
    if t_dg <= 0:
        raise ParameterError("trace has no completed tasks")
    return shared + subtotal + dedicated + [
        SpeedupRow("TOTAL", 0.0, sum(t.n_jobs for t in trace.tasks),
                   sum(t.n_jobs * t.t_job_ref_s for t in trace.tasks), t_dg)]


def oracle_segment_regimes(trace, task_name):
    """Split one task's history into initial / active / final regimes.

    The initial stage ends when the task's in-flight job count first
    reaches its maximum; the active stage ends at the task's last dispatch;
    the final stage runs to the last completion.  Per-regime rates are
    completions per second (0 for an empty or zero-length regime).
    """
    task = _task_by_name(trace, task_name)
    start, end = _task_window(trace, task)

    running_on = {}  # host -> gids of this task
    inflight = 0
    max_inflight = 0
    t_initial_end = start
    t_active_end = start
    completion_times = []
    for e in trace.events:
        if e.kind == DISPATCH and e.task == task_name:
            running_on.setdefault(e.host_id, set()).add(e.job_id)
            inflight += 1
            t_active_end = e.time
            if inflight > max_inflight:
                max_inflight = inflight
                t_initial_end = e.time
        elif e.kind == COMPLETE and e.task == task_name:
            completion_times.append(e.time)
            # a completion after its host went down left flight with the host
            running = running_on.get(e.host_id)
            if running and e.job_id in running:
                running.remove(e.job_id)
                inflight -= 1
        elif e.kind == HOST_DOWN:
            lost = running_on.pop(e.host_id, None)
            if lost:
                inflight -= len(lost)

    t_initial_end = min(t_initial_end, t_active_end)
    degenerate = t_initial_end == t_active_end == start

    def rate(t0, t1):
        if t1 <= t0:
            return 0.0
        n = sum(1 for t in completion_times if t0 < t <= t1)
        if t0 == start:  # include completions exactly at the window start
            n += sum(1 for t in completion_times if t == start)
        return n / (t1 - t0)

    return RegimeSegmentation(
        task=task_name,
        t_start=start,
        t_initial_end=t_initial_end,
        t_active_end=t_active_end,
        t_end=end,
        rate_initial=rate(start, t_initial_end),
        rate_active=rate(t_initial_end, t_active_end),
        rate_final=rate(t_active_end, end),
        max_inflight=max_inflight,
        degenerate=degenerate,
    )


def segment_regimes(trace, task_name):
    """One task's initial / active / final regimes, looked up in ``trace.accounts``.

    Per-regime rates are completions per second, 0 for an empty or
    zero-length regime.
    """
    if task_name not in trace.accounts:
        raise ParameterError(f"unknown task {task_name!r}")
    return trace.accounts[task_name]


def oracle_write_trace_csv(trace, path):
    """trace.csv through ``csv.writer``: one row per event, times as ``repr``."""
    write_csv(path, TRACE_CSV_HEADER,
              ([repr(e.time), e.kind, "" if e.job_id < 0 else e.job_id, e.task, e.host_id]
               for e in trace.events))


def gibrat_trajectory(
    initial: float,
    n_steps: int,
    factor_logmu: float,
    factor_logsigma: float,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """Multiplicative-growth path: value_{t+1} = value_t * f_t, ln f_t normal.

    Returns the full path of length ``n_steps + 1`` including the initial
    value.  A zero ``factor_logsigma`` gives an exactly geometric sequence.
    """
    if initial <= 0:
        raise ParameterError("initial must be > 0")
    if n_steps < 0:
        raise ParameterError("n_steps must be >= 0")
    if factor_logsigma < 0:
        raise ParameterError("factor_logsigma must be >= 0")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    log_factors = rng.normal(factor_logmu, factor_logsigma, size=n_steps)
    path = np.empty(n_steps + 1)
    path[0] = initial
    if n_steps:
        if factor_logsigma == 0:
            # keep the sigma=0 case exactly geometric, not exp(cumsum(log))
            factor = math.exp(factor_logmu)
            for t in range(n_steps):
                path[t + 1] = path[t] * factor
        else:
            path[1:] = initial * np.exp(np.cumsum(log_factors))
    return path


def calibrate_lognormal(
    target_mean: float,
    target_sd: float,
    snap: bool = False,
    n_probe: int = 40000,
    seed: int = 12345,
    refine_rounds: int = 3,
) -> tuple[float, float]:
    """Grid-search (logmu, logsigma) so sampled mean/sd hit the targets.

    With ``snap`` the draws are snapped to CPU_STEPS before the moments are
    taken, which is what makes a closed-form moment match insufficient and
    the search necessary.  Deterministic for fixed arguments; this is the
    search that produced the log-normal pairs of ``gridsweep.hosts.PRESETS``.
    """
    if target_mean <= 0 or target_sd < 0:
        raise ParameterError("targets must be positive")
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n_probe)

    # closed-form moment match as the search center
    ratio2 = (target_sd / target_mean) ** 2
    sig0 = math.sqrt(math.log1p(ratio2))
    mu0 = math.log(target_mean) - sig0**2 / 2

    def loss(mu, sig):
        draws = np.exp(mu + sig * z)
        if snap:
            draws = snap_cpus(draws).astype(float)
        return ((draws.mean() - target_mean) / target_mean) ** 2 + (
            (draws.std() - target_sd) / target_sd
        ) ** 2

    best = (mu0, sig0)
    span_mu, span_sig = 0.6, 0.6
    for _ in range(refine_rounds):
        mus = np.linspace(best[0] - span_mu, best[0] + span_mu, 25)
        sigs = np.linspace(max(best[1] - span_sig, 0.01), best[1] + span_sig, 25)
        scores = [(loss(m, s), m, s) for m in mus for s in sigs]
        _, bm, bs = min(scores)
        best = (bm, bs)
        span_mu /= 6
        span_sig /= 6
    return float(best[0]), float(best[1])


def weibull_log_likelihood(sample, k, lam):
    """Log-likelihood of a sample under Weibull(k, lam)."""
    v = np.asarray(sample, dtype=float)
    if np.any(v <= 0) or k <= 0 or lam <= 0:
        raise DomainError("positive values and parameters required")
    n = v.size
    return float(
        n * math.log(k) - n * k * math.log(lam) + (k - 1) * np.log(v).sum() - ((v / lam) ** k).sum()
    )


def _scalar_weibull_profile(k, y, ln_y, mean_ln):
    """Profile shape equation g(k) and g'(k); y is the sample scaled by its max."""
    yk = y**k
    yk_ln = yk * ln_y
    s0 = yk.sum()
    s1 = yk_ln.sum()
    s2 = (yk_ln * ln_y).sum()
    g = s1 / s0 - 1.0 / k - mean_ln
    gprime = s2 / s0 - (s1 / s0) ** 2 + 1.0 / (k * k)
    return g, gprime


def oracle_fit_weibull(sample, max_iter=100):
    """Two-parameter Weibull MLE of one sample, one Newton step at a time.

    The profile equation for the shape k is solved by Newton iteration with
    a bisection safeguard, started from the coefficient-of-variation
    heuristic; the scale follows in closed form.  On non-convergence the best
    iterate is returned with ``converged`` False.
    """
    v = np.asarray(sample, dtype=float)
    if np.any(v <= 0):
        raise DomainError("weibull fit requires strictly positive values")
    if v.size < 2 or v.max() == v.min():
        raise DegenerateSampleError("need at least two distinct values")

    y = v / v.max()
    ln_y = np.log(y)
    mean_ln = float(ln_y.mean())

    cv = v.std() / v.mean()
    k = float(np.clip(cv**-1.086, 1e-2, 1e3)) if cv > 0 else 1.0

    lo, hi = k, k
    glo, _ = _scalar_weibull_profile(lo, y, ln_y, mean_ln)
    ghi = glo
    for _ in range(200):
        if glo > 0:
            lo /= 1.5
            glo, _ = _scalar_weibull_profile(lo, y, ln_y, mean_ln)
        elif ghi < 0:
            hi *= 1.5
            ghi, _ = _scalar_weibull_profile(hi, y, ln_y, mean_ln)
        else:
            break
    converged = False
    for _ in range(max_iter):
        g, gp = _scalar_weibull_profile(k, y, ln_y, mean_ln)
        if g > 0:
            hi = min(hi, k)
        else:
            lo = max(lo, k)
        step = g / gp
        k_new = k - step
        if not (lo <= k_new <= hi):
            k_new = 0.5 * (lo + hi)
        if abs(k_new - k) <= 1e-10 * max(1.0, k):
            k = k_new
            converged = True
            break
        k = k_new

    lam = float(v.max() * (np.mean(y**k)) ** (1.0 / k))
    n = v.size
    loglik = float(
        n * math.log(k)
        - n * k * math.log(lam)
        + (k - 1) * np.log(v).sum()
        - ((v / lam) ** k).sum()
    )
    return FitResult("weibull", (float(k), lam), loglik, converged)


def oracle_ks_statistic(sample, fit):
    """sup |ECDF - fitted CDF| at both sides of every step of the sorted sample."""
    v = np.sort(np.asarray(sample, dtype=float))
    n = v.size
    cdf = fit.cdf(v)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n), 0.0))


def oracle_ks_bootstrap(sample, fit, n_resamples, seed):
    """The parametric-bootstrap KS p-value, one resample at a time.

    Returns (refits, p): per resample, None when its fit rejects it as
    degenerate (it counts as extreme), else (params, converged, D).
    """
    d = oracle_ks_statistic(sample, fit)
    n = np.asarray(sample).size
    fitter = fit_normal if fit.family == "normal" else oracle_fit_weibull
    rng = np.random.default_rng(seed)
    refits = []
    exceed = 0
    for _ in range(n_resamples):
        resample = fit.sample(rng, n)
        if fit.family == "weibull":
            resample = np.maximum(resample, 1e-300)
        if not np.isfinite(resample).all():
            raise ParameterError("sample contains non-finite values")
        try:
            refit = fitter(resample)
        except DegenerateSampleError:
            refits.append(None)
            exceed += 1
            continue
        d_star = oracle_ks_statistic(resample, refit)
        refits.append((refit.params, refit.converged, d_star))
        exceed += d_star >= d
    return refits, (1.0 + exceed) / (n_resamples + 1.0)


def oracle_pearson_point(sample):
    """Exact (beta1, beta2) = (m3^2 / m2^3, m4 / m2^2) of the float sample, as
    Fractions, from population central moments in rational arithmetic."""
    v = [Fraction(float(x)) for x in sample]
    mean = sum(v) / len(v)
    m2, m3, m4 = (sum((x - mean) ** r for x in v) / len(v) for r in (2, 3, 4))
    return m3 * m3 / m2**3, m4 / (m2 * m2)
