import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from tocp import moments, walk
from tocp.moments import (
    TruncatedQ,
    ValidityError,
    box_coords,
    box_index,
    box_size,
    build_h,
    build_q,
    check_harmonic,
    exact_row_sums,
    expm_apply,
    integrate_second_moment,
    mean_xi_closed_form,
    q_invariants,
    q_norm_bound,
    second_moment_bound,
    shell_distances,
)


def test_mean_closed_form():
    assert mean_xi_closed_form(0.7, 3, 0.0) == 1.0
    assert mean_xi_closed_form(0.25, 4, 7.3) == 1.0
    assert mean_xi_closed_form(0.2, 4, 1.0) == pytest.approx(math.exp(-0.2))


def test_box_indexing_roundtrip():
    for idx in (0, 1, 37, 124):
        assert box_index(box_coords(idx, 3, 2), 2) == idx
    assert box_coords(box_index((0, 0), 4), 2, 4) == (0, 0)


def test_build_q_entries():
    d, lam, R = 2, 0.3, 3
    Q = build_q(d, lam, R)
    A = Q.matrix.toarray()
    o = Q.origin
    x = box_index((1, 1), R)
    assert A[x, x] == -4 * lam * d
    assert A[o, o] == 1 - 2 * lam * d
    assert A[o, box_index((1, 1), R)] == 2 * lam  # mixed two-step target, 2 ordered pairs
    assert A[o, box_index((2, 0), R)] == lam  # doubled step, 1 ordered pair
    assert A[o, box_index((1, 0), R)] == 2 * lam  # neighbour entry
    assert A[x, box_index((1, 2), R)] == 2 * lam


def test_build_q_rejects_small_radius():
    with pytest.raises(ValueError):
        build_q(2, 0.3, 1)


def reference_q(d, lam, R):
    """Reference: the generator assembled from COO pieces, one per kind of
    coupling and direction, converted to CSR (build_q's former assembly)."""
    side = 2 * R + 1
    size = side**d
    origin = box_index((0,) * d, R)
    idx = np.arange(size, dtype=np.int64)
    rows, cols = [idx], [idx]
    diag = np.full(size, -4.0 * lam * d)
    diag[origin] = 1.0 - 2.0 * lam * d
    vals = [diag]
    for axis in range(d):
        c = (idx // side**axis) % side - R
        for sgn in (1, -1):
            ok = np.abs(c + sgn) <= R
            rows.append(idx[ok])
            cols.append(idx[ok] + sgn * side**axis)
            vals.append(np.full(ok.sum(), 2.0 * lam))
    for tgt, count in moments._origin_pair_targets(d).items():
        rows.append(np.array([origin]))
        cols.append(np.array([box_index(tgt, R)]))
        vals.append(np.array([lam * count]))
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    ).tocsr()


@pytest.mark.parametrize("d, R, lam", [(1, 2, 0.3), (2, 3, 0.3), (2, 6, 0.3), (3, 4, 0.9),
                                       (5, 4, 0.3), (5, 2, 0.1)])
def test_build_q_matches_reference_assembly(d, R, lam):
    got, want = build_q(d, lam, R).matrix, reference_q(d, lam, R)
    assert got.format == "csr" and got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.indices.dtype == np.int32
    assert got.has_canonical_format and want.has_canonical_format
    if lam * d == 0.5:
        # 1 - 2 lam d rounds to 0.0 and is stored: exact_row_sums reads it
        o = box_index((0,) * d, R)
        row0 = slice(got.indptr[o], got.indptr[o + 1])
        assert list(got.data[row0][got.indices[row0] == o]) == [0.0]


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_q_peak_memory_is_near_the_matrix():
    # the former COO assembly peaked at 4.5 times the matrix here
    build_q(5, 0.3, 4)  # first-call imports and caches stay out of the peak
    out = []
    peak = _traced_peak(lambda: out.append(build_q(5, 0.3, 4).matrix))
    A = out[0]
    assert peak <= 2.5 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


def per_entry_row_sums(Q):
    """Reference: every stored entry valued by its role, one by one."""
    d, R, lamf = Q.d, Q.radius, Fraction(Q.lam)
    pairs = moments._origin_pair_targets(d)
    sums = {}
    coo = Q.matrix.tocoo()
    for r, c in zip(coo.row.tolist(), coo.col.tolist()):
        if r == Q.origin:
            tgt = box_coords(c, d, R)
            if c == r:
                fv = 1 - 2 * lamf * d
            elif sum(abs(v) for v in tgt) == 1:
                fv = 2 * lamf
            else:
                fv = lamf * pairs[tgt]
        elif c == r:
            fv = -4 * lamf * d
        else:
            fv = 2 * lamf
        sums[r] = sums.get(r, Fraction(0)) + fv
    return sums


def test_row_sums_exact():
    d, lam, R = 2, 0.3, 4
    Q = build_q(d, lam, R)
    sums = exact_row_sums(Q)
    interior = shell_distances(d, R) <= R - 1
    lamf = Fraction(lam)
    for r in np.flatnonzero(interior):
        want = 1 + 4 * lamf * d * d if r == Q.origin else Fraction(0)
        assert sums[r] == want


@pytest.mark.parametrize("d, lam, R", [(1, 0.3, 2), (2, 0.3, 6), (2, 0.35, 4), (3, 0.4, 3),
                                       (5, 0.1, 2), (3, 1 / 6, 2)])
def test_exact_row_sums_match_per_entry_sums(d, lam, R):
    Q = build_q(d, lam, R)
    sums = exact_row_sums(Q)
    want = per_entry_row_sums(Q)
    assert len(want) == Q.size
    assert all(sums[r] == s for r, s in want.items())


@pytest.mark.parametrize("d, lam", [(5, 0.1), (3, 1 / 6)])
def test_q_invariants_at_lattice_lower_bound(d, lam):
    # lam = 1/(2d): the float origin diagonal 1 - 2 lam d is stored as an
    # explicit 0.0, while the rational of the float lam leaves it nonzero
    Q = build_q(d, lam, 2)
    assert Q.matrix[Q.origin, Q.origin] == 0.0
    assert 1 - 2 * Fraction(lam) * d != 0
    assert q_invariants(Q)[0]["interior_row_sums_exact"]


def test_off_diagonal_structure_is_nonnegative():
    Q = build_q(3, 0.4, 3)
    coo = Q.matrix.tocoo()
    for r, c, v in zip(coo.row, coo.col, coo.data):
        if r != c:
            assert v > 0
        else:
            assert v >= -4 * 0.4 * 3


def test_expm_identity_and_zero():
    Q = build_q(1, 0.3, 2)
    v = np.arange(5, dtype=float)
    assert np.array_equal(expm_apply(Q, v, 0.0), v)
    assert not expm_apply(Q, np.zeros(5), 1.0).any()


def test_expm_matches_dense_series():
    Q = build_q(1, 0.3, 2)
    A = Q.matrix.toarray()
    rng = np.random.default_rng(1)
    v = rng.random(5)

    def dense(t):
        acc = v.copy()
        term = v.copy()
        for k in range(1, 300):
            term = (A @ term) * (t / k)
            acc = acc + term
            if np.abs(term).max() < 1e-300:
                break
        return acc

    for t in (0.2, 1.0, 3.0):
        assert np.abs(expm_apply(Q, v, t) - dense(t)).max() < 1e-12


def test_iterated_norm_bound():
    Q = build_q(2, 0.3, 5)
    bound = q_norm_bound(Q)
    v = np.ones(Q.size)
    for n in range(1, 6):
        v = Q.matrix.dot(v)
        assert np.abs(v).max() <= bound**n


def test_expm_columns_nonnegative():
    Q = build_q(2, 0.3, 4)
    probe = np.zeros(Q.size)
    for c in range(0, Q.size, 7):
        probe[:] = 0
        probe[c] = 1.0
        for t in (0.1, 0.5, 1.0):
            assert expm_apply(Q, probe, t).min() >= -1e-10


@pytest.mark.parametrize("t", [float("inf"), float("nan"), -1.0])
def test_expm_rejects_bad_time(t):
    with pytest.raises(ValueError):
        expm_apply(build_q(1, 0.3, 2), np.ones(5), t)


def test_integrate_second_moment_rejects_non_finite_time():
    for t in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            integrate_second_moment(2, 0.3, 2, [0.5, t])


def rel_dev(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def test_expm_mixed_sign_vector_matches_dense_expm():
    Q = build_q(2, 0.3, 3)
    v = np.random.default_rng(3).standard_normal(Q.size)
    for t in (0.1, 1.0, 5.0):
        want = scipy.linalg.expm(t * Q.matrix.toarray()) @ v
        assert rel_dev(expm_apply(Q, v, t), want) < 1e-12


def test_expm_non_metzler_matrix_matches_dense_expm():
    # negative off-diagonal entries and a diagonal of both signs
    rng = np.random.default_rng(4)
    A = sp.random(60, 60, density=0.1, random_state=rng, data_rvs=lambda n: rng.uniform(-1, 1, n))
    A = (A + sp.diags(rng.uniform(-2, 1, 60))).tocsr()
    v = rng.standard_normal((60, 3))
    for t in (0.1, 1.0, 3.0):
        assert rel_dev(expm_apply(A, v, t), scipy.linalg.expm(t * A.toarray()) @ v) < 1e-12


def test_expm_long_horizon_does_not_overflow():
    # exp(mu t) alone overflows (mu = 4 lam d = 3.6), exp(tQ) 1 does not
    Q = build_q(3, 0.3, 3)
    t = 300.0
    with pytest.raises(OverflowError):
        math.exp(-Q.matrix.diagonal().min() * t)
    v = np.ones(Q.size)
    w = expm_apply(Q, v, t)
    assert np.isfinite(w).all()
    assert rel_dev(w, expm_apply(Q, expm_apply(Q, v, t / 2), t / 2)) < 1e-12


def test_expm_block_matches_dense_expm():
    Q = build_q(2, 0.3, 3)
    A = Q.matrix.toarray()
    for t in (0.1, 1.0, 5.0):
        assert np.abs(expm_apply(Q, np.eye(Q.size), t) - scipy.linalg.expm(t * A)).max() < 1e-12


class CountingCSR(sp.csr_matrix):
    """A CSR matrix that counts its ``dot`` calls."""

    calls = 0

    def dot(self, other):
        CountingCSR.calls += 1
        return super().dot(other)


def dot_calls(A, v, t):
    CountingCSR.calls = 0
    w = expm_apply(CountingCSR(A), v, t)
    return w, CountingCSR.calls


def test_expm_nonnegative_long_substeps_match_dense_expm():
    # a Metzler Q and v >= 0: substeps reach tau * alpha <= 16, not 2
    Q = build_q(2, 0.3, 3)
    t = 30.0
    E = scipy.linalg.expm(t * Q.matrix.toarray())
    for v in (np.ones(Q.size), np.eye(Q.size)):
        w, calls = dot_calls(Q.matrix, v, t)
        assert rel_dev(w, E @ v) < 1e-12
        # the same action on -v is signed, so it keeps the short substeps
        w_neg, calls_neg = dot_calls(Q.matrix, -v, t)
        assert rel_dev(w_neg, -(E @ v)) < 1e-12
        assert 3 * calls < calls_neg


def test_expm_substep_at_the_long_bound_stops_inside_the_term_cap():
    for d, lam, R in ((1, 0.3, 2), (2, 0.3, 3), (3, 0.9, 3), (5, 0.3, 4)):
        A = build_q(d, lam, R).matrix
        diag = A.diagonal()
        mu = -float(diag.min())
        alpha = moments._power_norm(A, diag, mu, True)
        t = 16.0 / alpha * (1 - 1e-9)  # one substep, just inside the bound
        _, calls = dot_calls(A, np.ones(A.shape[0]), t)
        assert calls - 8 <= 60  # the power norm takes 8; the term cap is 119


def test_metzler_check_reads_stored_entries():
    A = build_q(2, 0.3, 3).matrix
    assert moments._is_metzler(A, A.diagonal())
    B = A.tolil()
    B[1, 2] = -1e-300
    B = B.tocsr()
    assert not moments._is_metzler(B, B.diagonal())
    assert not moments._is_metzler(B.tocoo(), B.diagonal())
    assert moments._is_metzler(A.toarray(), A.diagonal())
    assert not moments._is_metzler(B.toarray(), B.diagonal())
    # a negative diagonal stored in two parts errs towards "not Metzler"
    C = sp.coo_matrix(([-1.0, -1.0, 1.0], ([0, 0, 0], [0, 0, 1])), shape=(2, 2))
    assert not moments._is_metzler(C, C.diagonal())
    D = sp.coo_matrix(([-3.0, 1.0, 1.0], ([0, 0, 0], [0, 0, 1])), shape=(2, 2))
    assert moments._is_metzler(D, D.diagonal())


@pytest.mark.parametrize("d, lam, R", [(1, 0.3, 2), (2, 0.3, 6), (3, 0.3, 4)])
def test_q_invariants_hold(d, lam, R):
    # (3, 0.3, 4) has 729 points, so 25 evenly spaced exp(tQ) columns are read
    checks, min_entry = q_invariants(build_q(d, lam, R))
    assert all(checks.values())
    assert min_entry >= -1e-10


def mutated(Q, edit):
    A = Q.matrix.tolil()
    edit(A)
    return TruncatedQ(Q.d, Q.lam, Q.radius, A.tocsr())


@pytest.mark.parametrize("row", [(1, 1), (0, 0)])
def test_q_invariants_catch_dropped_entry(row):
    Q = build_q(2, 0.3, 4)
    x = box_index(row, 4)
    y = box_index((row[0], row[1] + 1), 4)

    def drop(A):
        A[x, y] = 0.0  # removes the entry from the LIL structure

    assert not q_invariants(mutated(Q, drop))[0]["interior_row_sums_exact"]


def test_q_invariants_catch_stray_origin_entry():
    Q = build_q(2, 0.3, 4)

    def stray(A):
        A[Q.origin, box_index((3, 0), 4)] = 0.3  # three steps out: no coupling

    assert not q_invariants(mutated(Q, stray))[0]["interior_row_sums_exact"]


def test_q_invariants_catch_negative_entry():
    Q = build_q(2, 0.3, 4)
    x, y = box_index((1, 1), 4), box_index((1, 2), 4)

    def negate(A):
        A[x, y] = -0.6

    checks, min_entry = q_invariants(mutated(Q, negate))
    assert not checks["expm_columns_nonnegative"]
    assert min_entry < -1e-10
    # the solver must not clip: q_invariants sees the true minimum of exp(tQ)
    A = mutated(Q, negate).matrix.toarray()
    want = min(scipy.linalg.expm(t * A).min() for t in (0.1, 0.5, 1.0))
    assert min_entry == pytest.approx(want, abs=1e-12)


def test_q_invariants_catch_scaled_entry():
    # role-valued row sums alone would still read exactly 0 here
    Q = build_q(2, 0.3, 3)
    x, y = box_index((1, 1), 3), box_index((1, 2), 3)

    def scale(A):
        A[x, y] *= 1.5

    assert list(exact_row_sums(mutated(Q, scale))) == list(exact_row_sums(Q))
    assert not q_invariants(mutated(Q, scale))[0]["interior_row_sums_exact"]


def test_q_invariants_catch_norm_excess():
    Q = build_q(2, 0.3, 4)
    checks, _ = q_invariants(TruncatedQ(Q.d, Q.lam, Q.radius, Q.matrix * 3.0))
    assert not checks["iterated_norm_bound"]


def test_second_moment_initial_conditions():
    res = integrate_second_moment(2, 0.3, 4, [0.0])
    assert res.g0[0] == 1.0
    # slope at zero: row sums give 1 + 4 lam d^2 at the origin, 0 elsewhere
    eps = 1e-6
    Q = build_q(2, 0.3, 4)
    g_eps = expm_apply(Q, np.ones(Q.size), eps)
    slope = (g_eps - 1.0) / eps
    assert slope[Q.origin] == pytest.approx(1 + 4 * 0.3 * 4, rel=1e-4)
    interior = (shell_distances(2, 4) <= 2)
    interior[Q.origin] = False
    assert np.abs(slope[interior]).max() < 1e-4


LUMPING_CASES = [(1, 0.3, 2), (2, 0.3, 6), (3, 0.4, 3), (3, 1 / 6, 3), (4, 0.37, 3),
                 (5, 0.1, 2), (5, 0.3, 4)]


def symmetry_classes(d, R):
    """Class label of every box point by its sorted |coordinates|, point by point."""
    mags = np.sort(np.abs([box_coords(i, d, R) for i in range(box_size(d, R))]), axis=1)
    return np.unique(mags, axis=0, return_inverse=True)[1].ravel()


def rows_equal_within_classes(A, labels):
    """Whether every row of ``A @ S`` (S the class-indicator matrix) equals,
    bit for bit, the row of its class's first point."""
    n = len(labels)
    S = sp.csr_matrix((np.ones(n), (np.arange(n), labels)))
    AS = (A @ S).tocsr()
    _, first = np.unique(labels, return_index=True)
    return (AS != AS[first[labels]]).nnz == 0


@pytest.mark.parametrize("d, lam, R", LUMPING_CASES)
def test_q_is_lumpable_onto_symmetry_classes(d, lam, R):
    Q = build_q(d, lam, R)
    labels = symmetry_classes(d, R)
    assert rows_equal_within_classes(Q.matrix, labels)
    # one interior off-diagonal entry scaled breaks it
    x, y = box_index((1,) + (0,) * (d - 1), R), box_index((2,) + (0,) * (d - 1), R)
    A = Q.matrix.tolil()
    A[x, y] *= 1.5
    assert not rows_equal_within_classes(A.tocsr(), labels)


def full_box_second_moment(d, lam, R, times):
    """Reference: ``G_t(0)`` from the all-ones vector under the full-box ``Q``
    and the leakage from ``e_0`` under ``Q^T``, summed over the outer shells."""
    ts = sorted(times)
    Q = build_q(d, lam, R)
    outer = shell_distances(d, R) >= R - 1
    e0 = np.zeros(Q.size)
    e0[Q.origin] = 1.0
    QT = Q.matrix.T.tocsr()
    g = np.ones(Q.size)
    row0 = e0.copy()
    g0 = []
    leak = []
    prev = 0.0
    for t in ts:
        g = expm_apply(Q, g, t - prev)
        row0 = expm_apply(QT, row0, t - prev)
        prev = t
        g0.append(float(g[Q.origin]))
        leak.append(float(row0[outer].sum()))
    return ts, g0, leak


@pytest.mark.parametrize("d, lam, R", LUMPING_CASES)
def test_lumped_second_moment_matches_full_box(d, lam, R):
    # t = 0, a repeated time, unsorted input and t = 5
    times = [1.0, 0.0, 2.5, 1.0, 5.0, 0.5]
    res = integrate_second_moment(d, lam, R, times)
    ts, g0, leak = full_box_second_moment(d, lam, R, times)
    assert res.times == ts == [0.0, 0.5, 1.0, 1.0, 2.5, 5.0]
    assert res.g0 == pytest.approx(g0, rel=1e-12, abs=0)
    assert res.leakage == pytest.approx(leak, rel=1e-12, abs=0)
    assert res.g0[0] == 1.0 and res.leakage[0] == 0.0


def lumped_from_box(d, lam, R):
    """Reference: ``Q̂`` lumped from the full box, each class's first point's
    row of ``Q`` summed over the target classes, classes in code order."""
    Q = build_q(d, lam, R)
    _, reps, cls = np.unique(moments._class_codes(d, R), return_index=True, return_inverse=True)
    rows = Q.matrix[reps]
    lumped = sp.csr_matrix((rows.data, cls[rows.indices], rows.indptr), shape=(len(reps),) * 2)
    lumped.sum_duplicates()
    mags = np.sort(np.abs([box_coords(int(r), d, R) for r in reps]), axis=1)
    return Q, lumped, mags


@pytest.mark.parametrize("d, lam, R", [(d, 0.3, R) for d in range(1, 6) for R in (2, 3, 4)]
                         + [(5, 0.1, 2), (5, 0.1, 4)])
def test_class_generator_matches_box_lumping(d, lam, R):
    Q, want, mags = lumped_from_box(d, lam, R)
    got, keys = moments._class_generator(d, lam, R)
    assert np.array_equal(keys, mags)
    # the same stored entries, the origin's explicit 0.0 at lam = 1/(2d) included
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
    tol = 4 * np.finfo(np.float64).eps * q_norm_bound(Q)
    assert np.abs(got.data - want.data).max() <= tol
    if 2 * lam * d == 1:
        assert got.indices[0] == 0 and got.data[0] == 0.0


def test_class_generator_guard(monkeypatch):
    with pytest.raises(ValueError, match="R must be >= 2"):
        moments._class_generator(2, 0.3, 1)
    monkeypatch.setattr(moments, "_CLASS_GUARD", math.comb(8 + 5, 5))
    assert integrate_second_moment(5, 0.3, 8, [0.5]).g0[0] > 1
    with pytest.raises(ValueError, match="beyond the class-count guard of 1287"):
        integrate_second_moment(5, 0.3, 9, [0.5])


def test_second_moment_past_the_box_guard_stays_below_the_bound():
    # R = 16 has 20,349 classes, against 33**5 = 39.1M box points; the size
    # was fixed from a 3 s budget (0.4 s measured) before any value was read
    d, lam, R = 5, 0.3, 16
    with pytest.raises(ValueError, match="box beyond the resource guard"):
        build_q(d, lam, R)
    f_e1 = walk.hitting_table(d, 1).lookup((1, 0, 0, 0, 0))
    b = moments.offset(d, lam, f_e1)
    res = integrate_second_moment(d, lam, R, [5.0, 10.0, 20.0])
    assert all(1 < g <= (1 + b) / b for g in res.g0)
    assert res.g0 == sorted(res.g0)


def test_harmonic_on_constants_vanishes_off_origin():
    Q = build_q(2, 0.35, 4)
    sums = exact_row_sums(Q)
    interior = shell_distances(2, 4) <= 3
    c = Fraction(7, 3)
    for r in np.flatnonzero(interior):
        if r != Q.origin:
            assert sums[r] * c == 0
    resid = Q.matrix.dot(np.full(Q.size, 2.5))
    mask = interior.copy()
    mask[Q.origin] = False
    assert np.abs(resid[mask]).max() < 1e-12


def test_build_h_validity_guard():
    tab3 = walk.hitting_table(3, 2, n_terms=2000)
    with pytest.raises(ValidityError):
        build_h(3, 0.5, tab3, 2)  # (d+1) F_3(e1) = 1.36 > 1
    tab5 = walk.hitting_table(5, 2, n_terms=1000)
    thr = moments.offset_threshold(5, tab5.lookup((1, 0, 0, 0, 0)))
    with pytest.raises(ValidityError):
        build_h(5, thr, tab5, 2)  # boundary rate gives offset 0, rejected


def test_build_h_values():
    tab = walk.hitting_table(5, 2, n_terms=1500)
    h = build_h(5, 0.3, tab, 2)
    f1 = tab.lookup((1, 0, 0, 0, 0))
    want_b = (4 * 5 * 0.3 * (1 - 6 * f1) - 1) / (1 + 4 * 25 * 0.3)
    assert h.b == pytest.approx(want_b)
    assert h.b > 0
    assert h.values[box_index((0,) * 5, 2)] == pytest.approx(1 + h.b)


def test_build_h_matches_pointwise_lookup():
    # the table reaches past the box, so classes outside it must be skipped
    for d, R, radius in ((5, 2, 3), (5, 3, 3), (6, 2, 2)):
        tab = walk.hitting_table(d, radius, n_terms=1500)
        h = build_h(d, 0.9, tab, R)
        want = np.array([tab.lookup(box_coords(i, d, R)) + h.b for i in range(box_size(d, R))])
        assert np.array_equal(h.values, want)


def test_check_harmonic_and_fixed_point_small():
    d, lam, R = 5, 0.3, 3
    tab = walk.hitting_table(d, R, n_terms=1500)
    h = build_h(d, lam, tab, R)
    Q = build_q(d, lam, R)
    rep = check_harmonic(Q, h, 1)
    assert rep.max_residual < 1e-3
    assert abs(rep.row0_identity_residual) < 1e-12
    w = expm_apply(Q, h.values, 0.5)
    mask = shell_distances(d, R) <= 1
    assert np.abs(w - h.values)[mask].max() < 2e-3


def test_second_moment_bound_properties():
    tab = walk.hitting_table(5, 2, n_terms=1500)
    h = build_h(5, 0.3, tab, 2)
    bound = second_moment_bound(h)
    assert bound == pytest.approx((1 + h.b) / h.b)
    assert bound >= 1
    h.b = 1e9
    assert second_moment_bound(h) == pytest.approx(1.0, abs=1e-8)
