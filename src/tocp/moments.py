"""Moment identities: closed-form means and the two-point correlation ODE.

The mean of the counting process on an r-regular graph solves a scalar
ODE with solution ``exp(t (lam * r - 1))``.  The two-point correlations
``G_t(x)`` of the drift-corrected real process on the d-lattice solve a
linear system ``dG/dt = Q G`` whose generator-like matrix ``Q`` acts on
functions of the displacement x.  Here ``Q`` is realized on a truncated
sup-norm box with absorbing boundary (columns leaving the box are
dropped), which only removes nonnegative mass from ``exp(tQ)`` and so
keeps the truncated ``G_t(0)`` a lower bound of the untruncated one.

The bounded vector ``h(x) = F_d(x) + b`` built from the random-walk
hitting probabilities is annihilated by the full-lattice ``Q`` when the
offset ``b`` is chosen from the hitting probability of a neighbour; its
range ratio ``(1 + b)/b`` then bounds the second moment uniformly in
time.  :func:`q_invariants` checks the three properties of ``Q`` that
bound rests on, for both ``tocp qcheck`` and the acceptance suite.

``Q`` commutes with the hyperoctahedral group of the box (permutations of
the coordinates and flips of their signs), whose orbits are the classes
of points with equal sorted |coordinates|.  Every row of ``Q`` therefore
puts the same total weight on each class as every other row of its own
class, so ``Q`` is exactly lumpable onto the classes (Kemeny & Snell,
*Finite Markov Chains*, 1960, section 6.3): for a vector ``v`` constant on
classes, ``exp(tQ) v`` is constant on classes and equals ``exp(tQ̂) v̂``
lifted back, where ``Q̂[c, c'] = sum over y in c' of Q[x_c, y]`` for any
representative ``x_c`` of ``c``.  No coupling joins two points of one
class (a unit step, and each of the origin row's two-step targets, changes
the multiset of |coordinates|), so ``Q̂`` keeps ``Q``'s diagonal and stays
Metzler.  :func:`integrate_second_moment` builds ``Q̂`` directly, class by
class from the sorted representative, without the box (126 classes in
place of 59,049 points at d = 5, R = 4), so its radius is limited by the
class count, ``C(R + d, d)``, not by ``build_q``'s 400,000-point guard.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .walk import HittingTable

__all__ = [
    "ValidityError",
    "TruncatedQ",
    "HarmonicH",
    "mean_xi_closed_form",
    "box_size",
    "box_index",
    "box_coords",
    "shell_distances",
    "build_q",
    "q_norm_bound",
    "expm_apply",
    "exact_row_sums",
    "q_invariants",
    "integrate_second_moment",
    "offset",
    "build_h",
    "check_harmonic",
    "second_moment_bound",
]


class ValidityError(ValueError):
    """The offset construction's hypothesis fails at the requested (d, lam)."""


def mean_xi_closed_form(lam: float, r: int, t: float) -> float:
    """Mean of the counting process per site on an r-regular graph."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return math.exp(t * (lam * r - 1.0))


# ---------------------------------------------------------------------------
# box indexing: coordinates in [-R, R]^d, mixed radix with axis 0 least
# significant, so the origin sits at index (size - 1) // 2.


def box_size(d: int, R: int) -> int:
    return (2 * R + 1) ** d


def box_index(coords, R: int) -> int:
    idx = 0
    for c in reversed(coords):
        if abs(c) > R:
            raise ValueError(f"coordinate {coords} outside box")
        idx = idx * (2 * R + 1) + (c + R)
    return idx


def box_coords(idx: int, d: int, R: int) -> tuple[int, ...]:
    side = 2 * R + 1
    out = []
    for _ in range(d):
        out.append(idx % side - R)
        idx //= side
    return tuple(out)


def shell_distances(d: int, R: int) -> np.ndarray:
    """Sup-norm of every box point, shape (box_size,)."""
    side = 2 * R + 1
    idx = np.arange(side**d)
    dist = np.zeros(side**d, dtype=np.int64)
    for axis in range(d):
        c = (idx // side**axis) % side - R
        np.maximum(dist, np.abs(c), out=dist)
    return dist


def _class_codes(d: int, R: int) -> np.ndarray:
    """Symmetry class of every box point, shape (box_size,): the base-(R + 1)
    code of its sorted |coordinates|, which is 0 at the origin only.
    (Sorting makes the order of the axes in the flat box index irrelevant.)"""
    side = 2 * R + 1
    mags = np.sort(np.abs(np.indices((side,) * d).reshape(d, -1) - R), axis=0)
    return (R + 1) ** np.arange(d) @ mags


@dataclass
class TruncatedQ:
    """Two-point correlation generator on a truncated box.

    ``matrix`` is CSR over box indices.  Boundary handling is absorbing:
    couplings pointing outside the box are dropped.
    """

    d: int
    lam: float
    radius: int
    matrix: sp.csr_matrix

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def origin(self) -> int:
        return box_index((0,) * self.d, self.radius)


def _origin_pair_targets(d: int):
    """Counts of ordered unit-vector pairs (y, z), z != -y, by target y+z."""
    units = []
    for i in range(d):
        e = [0] * d
        e[i] = 1
        units.append(tuple(e))
        units.append(tuple(-v for v in e))
    counts: dict[tuple, int] = {}
    for y in units:
        for z in units:
            tgt = tuple(a + b for a, b in zip(y, z))
            if all(v == 0 for v in tgt):
                continue
            counts[tgt] = counts.get(tgt, 0) + 1
    return counts


def build_q(d: int, lam: float, R: int) -> TruncatedQ:
    """Assemble the truncated correlation generator.

    Rows x != 0 carry ``-4 lam d`` on the diagonal and ``2 lam`` on each
    in-box neighbour.  Row 0 carries ``1 - 2 lam d`` on the diagonal,
    ``2 lam`` on neighbours of the origin and ``lam`` times the ordered
    pair count on every distance-2 target (1 for doubled steps, 2 for
    mixed-axis ones), which is why ``R >= 2`` is required.

    The CSR arrays are written straight in row order, with int32 indices.
    Row x's columns ``x - s_{d-1}, ..., x - 1, x, x + 1, ..., x + s_{d-1}``,
    ``s_a = (2R + 1)**a``, are already increasing, so an in-box mask of
    shape ``(size, 2d + 1)`` gives ``indptr`` from its row counts and
    ``indices`` from a compress; the origin row, merged with its two-step
    targets in column order, is spliced in.  The call's traced peak is
    below twice the returned matrix: 10.1 MB against 7.2 MB at d = 5, R = 4.
    """
    if d < 1 or not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"need d >= 1 and finite lam > 0, got d={d}, lam={lam}")
    if R < 2:
        raise ValueError("R must be >= 2 (row 0 reaches distance-2 targets)")
    side = 2 * R + 1
    size = side**d
    if size > 400_000:
        raise ValueError("box beyond the resource guard")
    origin = box_index((0,) * d, R)
    idx = np.arange(size, dtype=np.int32)
    offsets = np.array([-side**a for a in reversed(range(d))] + [0] + [side**a for a in range(d)],
                       dtype=np.int32)
    inside = np.ones((size, 2 * d + 1), dtype=bool)
    for a in range(d):
        digit = idx // side**a % side
        inside[:, d - 1 - a] = digit > 0
        inside[:, d + 1 + a] = digit < side - 1
    pairs = _origin_pair_targets(d)
    row0 = np.concatenate([origin + offsets, [box_index(tgt, R) for tgt in pairs]])
    vals0 = np.concatenate([np.full(2 * d + 1, 2.0 * lam), [lam * n for n in pairs.values()]])
    vals0[d] = 1.0 - 2.0 * lam * d
    order = np.argsort(row0)
    counts = inside.sum(axis=1, dtype=np.int32)
    counts[origin] = len(row0)
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    lo, hi = indptr[origin], indptr[origin + 1]
    indices = np.empty(indptr[-1], dtype=np.int32)
    cols = idx[:, None] + offsets
    np.compress(inside[:origin].ravel(), cols[:origin].ravel(), out=indices[:lo])
    np.compress(inside[origin + 1:].ravel(), cols[origin + 1:].ravel(), out=indices[hi:])
    indices[lo:hi] = row0[order]
    del cols
    data = np.full(len(indices), 2.0 * lam)
    data[indptr[:-1] + inside[:, :d].sum(axis=1)] = -4.0 * lam * d
    data[lo:hi] = vals0[order]
    matrix = sp.csr_matrix((data, indices, indptr), shape=(size, size))
    return TruncatedQ(d, lam, R, matrix)


def q_norm_bound(Q: TruncatedQ) -> float:
    """Closed-form sup-norm bound ``1 + 8 lam d + 4 lam d**2``."""
    return 1.0 + 8.0 * Q.lam * Q.d + 4.0 * Q.lam * Q.d**2


def _power_norm(A, diag: np.ndarray, mu: float, metzler: bool) -> float:
    """``min over p <= 8 of max(|B|**p 1)**(1/p)`` for ``B = A + mu I``,
    without forming ``B``.  For a Metzler ``A`` ``|B| = B``, so ``|B| x =
    A x + mu x``; otherwise ``|B| x = |A| x + (|diag A + mu| - |diag A|) x``,
    with the copy ``|A|`` freed on return."""
    abs_a, shift = (A, mu) if metzler else (abs(A), np.abs(diag + mu) - np.abs(diag))
    powers = np.ones(A.shape[0])
    alpha = math.inf
    for p in range(1, 9):
        powers = abs_a.dot(powers) + shift * powers
        alpha = min(alpha, float(powers.max()) ** (1.0 / p))
    return alpha


def _is_metzler(A, diag: np.ndarray) -> bool:
    """Whether no stored off-diagonal entry of ``A`` is negative (formats
    other than CSR, CSC and COO, dense arrays included, are read through a
    CSR copy).

    A negative diagonal entry has at least one negative stored part, so
    ``A`` has no more negative stored entries than negative diagonal ones
    only if none off the diagonal is negative.  Duplicate parts that sum
    to a nonnegative entry read as negative: the answer errs towards no.
    """
    data = A.data if getattr(A, "format", None) in ("csr", "csc", "coo") else sp.csr_array(A).data
    return np.count_nonzero(data < 0) == np.count_nonzero(diag < 0)


_EXPM_RTOL = 1e-13  # Taylor stopping tolerance of expm_apply
# substep reach tau * alpha of expm_apply: without and with a sign-free series
_REACH_SIGNED, _REACH_NONNEGATIVE = 2.0, 16.0


def expm_apply(Q: TruncatedQ | sp.spmatrix, v: np.ndarray, t: float) -> np.ndarray:
    """Action ``exp(tQ) v`` by substepped, shifted truncated Taylor series.

    ``v`` is a vector or a block of columns.  With ``mu = max(0, -min diag Q)``
    each substep sums the series of ``exp(tau B)``, ``B = Q + mu I``, and
    multiplies by ``exp(-mu tau)``, so ``exp(mu t)`` is never formed whole
    and cannot overflow.  Substeps are sized from power norms, as in
    Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 2011): ``alpha = min over
    p <= 8 of max(|B|**p 1)**(1/p)``, which is ``||B**p||_inf**(1/p)`` for
    a Metzler ``Q`` (every off-diagonal entry nonnegative) and an upper
    bound on it otherwise.  The reach ``tau * alpha`` of a substep is read
    from the entries of the input:

    - at most 16 when no stored off-diagonal entry of ``Q`` is negative
      and ``v`` is nonnegative.  Then ``B`` is entrywise nonnegative and
      so is every term ``(tau B)**k v / k!``: no term cancels another,
      each is at most the sum, and rounding stays relative to the
      result however large the terms grow; ``exp(16)`` is about 8.9e6,
      far from overflow;
    - at most 2 otherwise: a signed term can cancel, and the shorter
      substep keeps the largest term near the size of the result.

    Within a substep terms are accumulated until two consecutive terms
    fall below ``_EXPM_RTOL`` (1e-13) relative to the largest entry of the
    running result, well past the 1e-10 contract; a substep at reach 16
    took 45 to 53 terms on four ``build_q`` boxes (d = 1, 2, 3 and 5),
    inside the cap of 119.
    Entries far below the largest are therefore accurate only absolutely,
    to about 1e-13 times the largest entry, not relative to their size.
    """
    A = Q.matrix if isinstance(Q, TruncatedQ) else Q
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    w = np.asarray(v, dtype=np.float64).copy()
    if t == 0 or not w.any():
        return w
    diag = A.diagonal()
    mu = max(0.0, -float(diag.min()))
    metzler = _is_metzler(A, diag)
    reach = _REACH_NONNEGATIVE if metzler and w.min() >= 0 else _REACH_SIGNED
    n_sub = max(1, math.ceil(_power_norm(A, diag, mu, metzler) * t / reach))
    tau = t / n_sub
    decay = math.exp(-mu * tau)
    for _ in range(n_sub):
        term = w.copy()
        small = 0
        for k in range(1, 120):
            a_term = A.dot(term)
            term *= mu
            term += a_term
            term *= tau / k
            w += term
            if np.max(np.abs(term)) <= _EXPM_RTOL * max(np.max(np.abs(w)), 1e-300):
                small += 1
                if small >= 2:
                    break
            else:
                small = 0
        w *= decay
    return w


def _origin_row_roles(Q: TruncatedQ, cols: np.ndarray, vals: np.ndarray) -> list[Fraction]:
    """Role value of each origin-row entry, from its column's displacement,
    as an exact rational; an entry at a displacement with no coupling
    keeps its stored value."""
    d, R, lam = Q.d, Q.radius, Fraction(Q.lam)
    pairs = _origin_pair_targets(d)
    roles = []
    for c, v in zip(cols.tolist(), vals.tolist()):
        tgt = box_coords(c, d, R)
        steps = sum(abs(x) for x in tgt)
        if steps == 0:
            roles.append(1 - 2 * lam * d)
        elif steps == 1:
            roles.append(2 * lam)
        else:
            roles.append(lam * pairs[tgt] if tgt in pairs else Fraction(v))
    return roles


def exact_row_sums(Q: TruncatedQ) -> np.ndarray:
    """Row sums of ``Q`` as exact rationals (an object array of ``Fraction``).

    Every stored entry is valued by its role, in rationals of the float
    ``lam``, explicit zeros included: the origin diagonal ``1 - 2 lam d``
    can round to 0.0 (``lam = 0.1``, ``d = 5``) where the rational is not
    0.  Off the origin the diagonal is ``-4 lam d`` and every other entry
    ``2 lam``, so those rows are summed from entry counts; the origin row
    is summed entry by entry from each column's displacement.
    """
    d, lam, origin = Q.d, Fraction(Q.lam), Q.origin
    A, counts = Q.matrix, np.diff(Q.matrix.indptr)
    rows, cols = np.repeat(np.arange(Q.size, dtype=A.indices.dtype), counts), A.indices
    # a row's kind is 2 * (off-diagonal count) + (diagonal count, 0 or 1)
    n_diag = np.bincount(rows[rows == cols], minlength=Q.size)
    kinds, which = np.unique(2 * counts - n_diag, return_inverse=True)
    by_kind = np.empty(len(kinds), dtype=object)
    by_kind[:] = [-4 * lam * d * (k % 2) + 2 * lam * (k // 2) for k in kinds.tolist()]
    sums = by_kind[which]
    at0 = slice(A.indptr[origin], A.indptr[origin + 1])
    sums[origin] = sum(_origin_row_roles(Q, cols[at0], A.data[at0]), Fraction(0))
    return sums


def _rows_storing_roles(Q: TruncatedQ) -> np.ndarray:
    """Per row, whether every stored entry is within ``4 eps q_norm_bound(Q)``
    of its role value: :func:`exact_row_sums` reads roles, not the stored
    floats, so a scaled entry would otherwise go unseen."""
    A, lam = Q.matrix, Fraction(Q.lam)
    rows = np.repeat(np.arange(Q.size, dtype=A.indices.dtype), np.diff(A.indptr))
    role = np.where(rows == A.indices, float(-4 * lam * Q.d), float(2 * lam))
    at0 = slice(A.indptr[Q.origin], A.indptr[Q.origin + 1])
    role[at0] = [float(r) for r in _origin_row_roles(Q, A.indices[at0], A.data[at0])]
    role -= A.data
    bad = np.abs(role, out=role) > 4 * np.finfo(np.float64).eps * q_norm_bound(Q)
    return np.bincount(rows[bad], minlength=Q.size) == 0


# entries per exp(tQ) block in q_invariants: about 4 MB for each of the
# solver's working arrays, whatever the box size
_EXPM_BLOCK_ENTRIES = 2**19


def q_invariants(Q: TruncatedQ) -> tuple[dict[str, bool], float]:
    """Verdicts on the three properties behind the uniform second-moment
    bound, by name, and the smallest ``exp(tQ)`` entry seen.

    Interior rows sum exactly to 0 and the origin row to ``1 + 4 lam d**2``
    (:func:`exact_row_sums`), and their stored entries match their role
    values to ``4 eps q_norm_bound(Q)``; ``max |Q**k 1| <=
    q_norm_bound(Q)**k`` for k = 1..5; no ``exp(tQ)`` entry is below
    -1e-10 at t = 0.1, 0.5 and 1, on every column of boxes of up to 400
    points, 25 evenly spaced columns beyond (the origin's is the middle
    one), in blocks of at most ``_EXPM_BLOCK_ENTRIES`` entries.
    """
    residual = exact_row_sums(Q)
    residual[Q.origin] -= 1 + 4 * Fraction(Q.lam) * Q.d**2
    interior = shell_distances(Q.d, Q.radius) <= Q.radius - 1
    rows_ok = not any(residual[interior]) and bool(_rows_storing_roles(Q)[interior].all())
    bound = q_norm_bound(Q)
    v = np.ones(Q.size)
    norm_ok = True
    for k in range(1, 6):
        v = Q.matrix.dot(v)
        norm_ok = norm_ok and float(np.abs(v).max()) <= bound**k
    cols = np.arange(Q.size) if Q.size <= 400 else np.arange(25) * (Q.size - 1) // 24
    step = max(1, _EXPM_BLOCK_ENTRIES // Q.size)
    min_entry = math.inf
    for part in np.split(cols, range(step, len(cols), step)):
        block = np.zeros((Q.size, len(part)))
        block[part, np.arange(len(part))] = 1.0
        min_entry = min(min_entry, *(float(expm_apply(Q, block, t).min()) for t in (0.1, 0.5, 1.0)))
    verdicts = {"interior_row_sums_exact": rows_ok, "iterated_norm_bound": norm_ok,
                "expm_columns_nonnegative": min_entry >= -1e-10}
    return verdicts, min_entry


@dataclass
class SecondMomentResult:
    times: list
    g0: list
    leakage: list


# classes of the lumped generator: build_q's guard on box points, applied to classes
_CLASS_GUARD = 400_000


def _class_generator(d: int, lam: float, R: int) -> tuple[sp.csr_matrix, np.ndarray]:
    """The lumped generator ``Q̂`` of the radius-``R`` box, built class by
    class, and the classes themselves, shape ``(C(R + d, d), d)``.

    A class is a nondecreasing tuple of |coordinates| in ``0..R``; its row
    is read at that tuple as the representative.  Rows are in ascending
    colex order, the order of the base-``(R + 1)`` code with the largest
    coordinate most significant, so the origin is class 0; a class's index
    is its colex rank ``sum over i of C(m_i + i, i + 1)``.  A unit step
    moves one coordinate by +-1 (0 goes to 1 either way) and is sorted
    again; each step that stays in the box adds ``2 lam``.  The diagonal
    is ``-4 lam d``, and ``1 - 2 lam d`` at the origin, whose row also
    carries its two-step targets: ``(0, ..., 0, 2)`` with ``2 d lam`` (the
    2d doubled steps) and ``(0, ..., 0, 1, 1)`` with ``4 d (d - 1) lam``
    (2d(d - 1) points, two ordered pairs each).  The class count is checked
    against ``_CLASS_GUARD`` before anything is allocated.
    """
    if d < 1 or not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"need d >= 1 and finite lam > 0, got d={d}, lam={lam}")
    if R < 2:
        raise ValueError("R must be >= 2 (row 0 reaches distance-2 targets)")
    n = math.comb(R + d, d)
    if n > _CLASS_GUARD:
        raise ValueError(f"{n} symmetry classes at d={d}, R={R}: beyond the class-count "
                         f"guard of {_CLASS_GUARD}")
    # prepending every value up to the current smallest keeps colex order
    keys = np.arange(R + 1)[:, None]
    for _ in range(d - 1):
        reps = keys[:, 0] + 1
        first = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        keys = np.column_stack([first, np.repeat(keys, reps, axis=0)])
    binom = np.array([[math.comb(m + i, i + 1) for m in range(R + 2)] for i in range(d)])

    def rank(k):
        return binom[np.arange(d), k].sum(axis=1)

    idx = np.arange(n)
    rows, cols, vals = [idx], [idx], [np.full(n, -4.0 * lam * d)]
    vals[0][0] = 1.0 - 2.0 * lam * d
    for j in range(d):
        for sgn in (1, -1):
            moved = keys.copy()
            moved[:, j] = np.abs(moved[:, j] + sgn)
            ok = moved[:, j] <= R
            rows.append(idx[ok])
            cols.append(rank(np.sort(moved[ok], axis=1)))
            vals.append(np.full(len(rows[-1]), 2.0 * lam))
    two_step = [((0,) * (d - 1) + (2,), 2 * d * lam)]
    if d > 1:
        two_step.append(((0,) * (d - 2) + (1, 1), 4 * d * (d - 1) * lam))
    for tgt, val in two_step:
        rows.append(np.array([0]))
        cols.append(rank(np.array([tgt])))
        vals.append(np.array([val]))
    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()
    return matrix, keys


def integrate_second_moment(d: int, lam: float, R: int, times) -> SecondMomentResult:
    """Evolve the correlation system from the all-ones start.

    Returns, in ascending time order (duplicates repeated), the origin
    value ``G_t(0)`` at each requested time together with a truncation
    indicator: the weight that ``exp(tQ)`` row 0 assigns to the outer two
    shells of the box, i.e. the part of ``G_t(0)`` already in contact with
    the absorbing boundary.

    Both are read at the origin from vectors that are constant on the
    box's symmetry classes, so the system is integrated on the lumped
    generator ``Q̂`` (see the module docstring), built class by class
    without the box: ``g0`` is ``(exp(tQ̂) 1̂)`` and ``leakage`` is
    ``(exp(tQ̂) 1̂_outer)`` at the origin's class, one :func:`expm_apply`
    per vector, since its stop rule is relative to each vector's largest
    entry.  The ``leakage`` entry is far below the largest one and so
    accurate only absolutely: against a dense ``exp(tQ)`` of the full box
    (d <= 3, R <= 6, t from 0.1 to 5) its error stayed below ``8e-15`` of
    that largest entry, which is up to ``2.2e-11`` relative to a leakage
    of ``5e-7`` (d = 1, R = 6, t = 0.1) and at most ``8.3e-14`` wherever
    the leakage is ``1e-3`` or more.

    Raises ``ValueError`` for ``R < 2`` and when the box has more than
    ``_CLASS_GUARD`` (400,000) classes, ``C(R + d, d)``: R = 31 is the
    largest radius at d = 5.
    """
    ts = sorted(times)
    if not all(math.isfinite(t) and t >= 0 for t in ts):
        raise ValueError(f"times must be finite and >= 0, got {ts}")
    lumped, keys = _class_generator(d, lam, R)
    g = np.ones(len(keys))
    outer = (keys[:, -1] >= R - 1).astype(np.float64)
    g0 = []
    leak = []
    prev = 0.0
    for t in ts:
        g = expm_apply(lumped, g, t - prev)
        outer = expm_apply(lumped, outer, t - prev)
        prev = t
        g0.append(float(g[0]))
        leak.append(float(outer[0]))
    return SecondMomentResult(ts, g0, leak)


@dataclass
class HarmonicH:
    """Bounded positive vector annihilated by the full-lattice generator."""

    d: int
    lam: float
    radius: int
    b: float
    values: np.ndarray  # F_d(x) + b over the box


def offset_threshold(d: int, f_e1: float) -> float:
    """Smallest rate for which the positive offset exists: 1/(4d(1-(d+1)F))."""
    margin = 1.0 - (d + 1) * f_e1
    if margin <= 0:
        raise ValidityError(
            f"hypothesis fails at d={d}: (d+1) F_d(e1) = {(d + 1) * f_e1:.4f} >= 1"
        )
    return 1.0 / (4.0 * d * margin)


def offset(d: int, lam: float, f_e1: float) -> float:
    """The offset ``b = (4 d lam [1 - (d+1) F_d(e1)] - 1) / (1 + 4 d**2 lam)``
    from the hitting probability ``f_e1 = F_d(e1)``, requiring ``lam``
    strictly above :func:`offset_threshold` so that ``b > 0``."""
    thr = offset_threshold(d, f_e1)
    if lam <= thr:
        raise ValidityError(
            f"lam = {lam} at or below the offset threshold {thr:.6f} for d = {d}"
        )
    return (4.0 * d * lam * (1.0 - (d + 1) * f_e1) - 1.0) / (1.0 + 4.0 * d * d * lam)


def build_h(d: int, lam: float, hitting: HittingTable, R: int) -> HarmonicH:
    """Assemble ``h = F_d + b`` on the box, with the :func:`offset` ``b``."""
    if hitting.d != d or hitting.radius < R:
        raise ValueError("hitting table does not cover the requested box")
    b = offset(d, lam, hitting.lookup((1,) + (0,) * (d - 1)))
    # a key (sorted |coordinates|) is a box point of its own class
    codes = _class_codes(d, R)
    keys = np.array(list(hitting.classes))
    inside = keys[:, -1] <= R
    key_points = (keys[inside] + R) @ (2 * R + 1) ** np.arange(d)  # box_index of each key
    table = np.zeros((R + 1) ** d)
    table[codes[key_points]] = np.array(list(hitting.classes.values()))[inside]
    values = table[codes] + b
    return HarmonicH(d, lam, R, b, values)


@dataclass
class HarmonicReport:
    max_residual: float
    n_interior: int
    row0_identity_residual: float


def check_harmonic(Q: TruncatedQ, h: HarmonicH, interior_radius: int) -> HarmonicReport:
    """Max of ``|(Q h)(x)|`` over the interior of the box.

    Rows within ``interior_radius`` see no truncation (their couplings
    stay inside the box), so the residual there measures only the
    hitting-table accuracy.  Also reports the closed-form origin-row
    identity ``(1 + 4 lam d^2) b + 1 - 4 lam d [1 - (d+1) F(e1)]``,
    which is zero by construction of the offset.
    """
    if interior_radius > Q.radius - 2:
        raise ValueError("interior radius must be <= R - 2")
    if h.radius != Q.radius or h.d != Q.d:
        raise ValueError("h and Q cover different boxes")
    resid = Q.matrix.dot(h.values)
    mask = shell_distances(Q.d, Q.radius) <= interior_radius
    e1 = (1,) + (0,) * (Q.d - 1)
    f1 = h.values[box_index(e1, Q.radius)] - h.b
    row0 = (1.0 + 4.0 * Q.lam * Q.d**2) * h.b + 1.0 - 4.0 * Q.lam * Q.d * (
        1.0 - (Q.d + 1) * f1
    )
    return HarmonicReport(float(np.abs(resid[mask]).max()), int(mask.sum()), float(row0))


def second_moment_bound(h: HarmonicH) -> float:
    """Uniform-in-time second-moment bound ``(1 + b)/b`` from the range of h."""
    if h.b <= 0:
        raise ValidityError("offset must be positive")
    return (1.0 + h.b) / h.b
