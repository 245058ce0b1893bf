"""Acceptance suite: one test per exit criterion.

Each test prints a single verdict line (run with ``pytest -s`` to see
them live).  Statistical checks use fixed seeds and the stated
4-standard-error (or 3 SE for the walk oracle) windows.  The two
long-running criteria are marked ``slow``; they still run by default.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from tocp import engines, moments, walk
from tocp.clocks import build_schedule
from tocp.experiments import bounds_report, branching_survival, critical_estimate
from tocp.graphs import LazyTree, build_torus, build_tree
from tocp.moments import build_h, build_q, check_harmonic, expm_apply
from tocp.processes import coupled_run_eta_xi


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_coupling_exactness():
    t0 = time.perf_counter()
    mismatches = 0
    for graph in (build_torus(1, 8), build_tree(3, 6)):
        for lam in (0.4, 0.7):
            for seed in range(100):
                s = build_schedule(graph, lam, 5.0, seed)
                mismatches += sum(coupled_run_eta_xi(s, graph, [1, 2, 3, 4, 5]))
    elapsed = time.perf_counter() - t0
    report(
        1,
        mismatches == 0 and elapsed < 60.0,
        f"spin vs counting indicator: {mismatches} mismatches over 400 runs "
        f"({elapsed:.1f}s)",
    )


def test_criterion_02_first_moment():
    g = build_torus(2, 16)
    n = 100_000
    worst = 0.0
    lines = []
    for i, lam in enumerate((0.2, 0.25, 0.3)):
        vals = engines.counts_replicas(g, lam, [0.5, 1.0], 0, n, seed=200 + i)
        for row, t in zip(vals, (0.5, 1.0)):
            mean = row.mean()
            se = row.std(ddof=1) / math.sqrt(n)
            want = math.exp(t * (4 * lam - 1))
            z = abs(mean - want) / se
            worst = max(worst, z)
            lines.append(f"lam={lam} t={t}: {mean:.4f} vs {want:.4f} ({z:.2f} SE)")
    report(2, worst < 4.0, "counting mean; " + "; ".join(lines))


def test_criterion_03_zeta_conservation():
    g = build_torus(2, 16)
    n = 100_000
    vals = engines.reals_replicas(g, 0.3, 2, [0.5, 1.0, 2.0], 0, n, seed=30)
    worst = 0.0
    lines = []
    for row, t in zip(vals, (0.5, 1.0, 2.0)):
        mean = row.mean()
        se = row.std(ddof=1) / math.sqrt(n)
        z = abs(mean - 1.0) / se
        worst = max(worst, z)
        lines.append(f"t={t}: {mean:.4f} ({z:.2f} SE)")
    report(3, worst < 4.0, "drift-corrected mean stays 1; " + "; ".join(lines))


def test_criterion_05_branching_thresholds():
    sub = branching_survival(5, 0.1, 20.0, 12, 10_000, seed=50)
    sup = branching_survival(5, 0.5, 20.0, 12, 10_000, seed=51)
    z_sub = abs(sub.offspring_mean - sub.offspring_expected) / sub.offspring_se
    z_sup = abs(sup.offspring_mean - sup.offspring_expected) / sup.offspring_se
    ok = (
        sub.estimate.value < 0.01
        and sup.estimate.value > 0.2
        and z_sub < 4
        and z_sup < 4
    )
    report(
        5,
        ok,
        f"branching survival {sub.estimate.value:.4f} @ rate 0.1 (<0.01), "
        f"{sup.estimate.value:.4f} @ rate 0.5 (>0.2); offspring means "
        f"{sub.offspring_mean:.3f}/{sup.offspring_mean:.3f} vs "
        f"{sub.offspring_expected:.3f}/{sup.offspring_expected:.3f}",
    )


def test_criterion_09_q_invariants():
    # 169 points: every column of exp(tQ) is checked
    checks, min_entry = moments.q_invariants(build_q(2, 0.3, 6))

    Q1 = build_q(1, 0.3, 2)
    A = Q1.matrix.toarray()
    rng = np.random.default_rng(9)
    w = rng.random(5)
    term, acc = w.copy(), w.copy()
    for k in range(1, 300):
        term = (A @ term) * (1.0 / k)
        acc = acc + term
        if np.abs(term).max() < 1e-300:
            break
    series_err = float(np.abs(expm_apply(Q1, w, 1.0) - acc).max())
    report(
        9,
        all(checks.values()) and series_err < 1e-12,
        f"row sums exact: {checks['interior_row_sums_exact']}; iterated norm within "
        f"(1+8ld+4ld^2)^n: {checks['iterated_norm_bound']}; "
        f"min exp(tQ) entry {min_entry:.1e}; dense-series deviation {series_err:.1e}",
    )


def test_criterion_10_harmonic_function():
    d, lam, R = 5, 0.3, 4
    table = walk.hitting_table(d, R)
    h = build_h(d, lam, table, R)
    Q = build_q(d, lam, R)
    rep = check_harmonic(Q, h, 2)
    w = expm_apply(Q, h.values, 1.0)
    mask = moments.shell_distances(d, R) <= 2
    fp_err = float(np.abs(w - h.values)[mask].max())
    res = moments.integrate_second_moment(d, lam, R, [1.0, 2.5, 5.0])
    bound = moments.second_moment_bound(h)
    bounded = all(g <= bound + lk for g, lk in zip(res.g0, res.leakage))
    ok = h.b > 0 and rep.max_residual < 1e-3 and fp_err < 1e-3 and bounded
    report(
        10,
        ok,
        f"offset b={h.b:.5f}>0; harmonic residual {rep.max_residual:.1e}<1e-3; "
        f"fixed-point deviation {fp_err:.1e}<1e-3; G_t(0) max {max(res.g0):.1f} "
        f"<= bound {bound:.1f} + leakage",
    )


def test_criterion_11_tail_certificates():
    ok = True
    details = []
    for d in (20, 40, 60):
        tb = walk.tail_certificates(d)
        l2_ok = tb.L_values[2] == Fraction(3, 4 * d * d)
        beta_ok = all(abs(v - 1) < 0.01 for n, v in tb.beta_values.items() if n >= 10)
        m_dec = all(tb.M_values[k + 1] < tb.M_values[k] for k in range(2, 20))
        good = tb.H1_bound_holds and l2_ok and beta_ok and m_dec and tb.M2_is_sup
        ok = ok and good
        details.append(f"d={d}: H1={float(tb.H1_exact):.2e} bounded={tb.H1_bound_holds}")
    m2 = walk.tail_certificates(20).M_values[2]
    ok = ok and abs(m2 - 9 / (2 * math.e**2)) < 1e-12 and m2 < 1
    report(11, ok, f"M_2={m2:.5f}<1; " + "; ".join(details))


def test_criterion_07_bound_tables():
    tree_rows = bounds_report(tree=list(range(2, 21)))
    trees_ok = all(
        r.lower == 1.0 / (r.param + 1) and r.upper == 1.0 / (r.param - 1)
        for r in tree_rows
    )
    lat_rows = bounds_report(lattice=list(range(3, 11)))
    by_d = {r.param: r for r in lat_rows}
    lower_ok = all(by_d[d].lower == 1.0 / (2 * d) for d in range(3, 11))
    hypo_ok = by_d[3].upper is None and all(by_d[d].upper is not None for d in range(4, 11))
    prods = [by_d[d].upper_x_degree for d in range(4, 11)]
    prod_ok = all(b < a for a, b in zip(prods, prods[1:])) and all(p > 1 for p in prods)
    report(
        7,
        trees_ok and lower_ok and hypo_ok and prod_ok,
        f"tree brackets exact n=2..20: {trees_ok}; lattice lower exact: {lower_ok}; "
        f"upper fails only at d=3: {hypo_ok}; 2d*upper decreasing "
        f"{prods[0]:.2f}..{prods[-1]:.3f}: {prod_ok}",
    )


def test_criterion_06_walk_hitting_trend():
    t0 = time.perf_counter()
    f_vals = {d: walk.hitting_prob_e1(d).value for d in range(3, 11)}
    gaps = [abs(2 * d * f_vals[d] - 1) for d in range(3, 11)]
    trend_ok = all(b < a for a, b in zip(gaps, gaps[1:]))
    final_ok = gaps[-1] < 0.15

    mc_ok = True
    mc_lines = []
    for d, trials, horizon in ((3, 300_000, 4_000), (10, 200_000, 600)):
        out = walk.mc_return_oracle(d, trials, horizon, seed=60 + d)
        p = walk.return_probabilities(d, horizon // 2)
        truncated = float(walk.first_return_probabilities(p).sum())
        z = abs(out["estimate"] - truncated) / out["se"]
        tail_gap = f_vals[d] - truncated
        mc_ok = mc_ok and z < 3 and 0 <= tail_gap < 0.02
        mc_lines.append(f"d={d}: mc={out['estimate']:.5f} vs {truncated:.5f} ({z:.2f} SE)")
    elapsed = time.perf_counter() - t0
    report(
        6,
        trend_ok and final_ok and mc_ok and elapsed < 300,
        f"|2d F_d(e1) - 1| strictly decreasing {gaps[0]:.3f}..{gaps[-1]:.3f}; "
        f"final {gaps[-1]:.4f}<0.15; " + "; ".join(mc_lines) + f" ({elapsed:.0f}s)",
    )


@pytest.mark.slow
def test_criterion_04_duality():
    n = 100_000
    results = []
    for graph, lam, name in (
        (build_torus(1, 10), 0.7, "torus(1,10)"),
        (build_tree(3, 8), 0.4, "tree(3,8)"),
    ):
        s_eta, s_dual = 40 + len(results), 45 + len(results)
        eta = engines.spin_replicas(graph, lam, [3.0], 0, n, seed=s_eta)[0]
        p_eta = eta.mean()
        hits = engines.set_survival_replicas(
            graph.neighbors_fn(), 0, lam, 3.0, n, seed=s_dual,
            cap=max(2000, graph.n_vertices),
        )
        p_dual = hits / n
        se = math.sqrt(p_eta * (1 - p_eta) / n + p_dual * (1 - p_dual) / n)
        z = abs(p_eta - p_dual) / se
        results.append((name, p_eta, p_dual, z))
    ok = all(z < 4 for *_, z in results)
    report(
        4,
        ok,
        "; ".join(f"{nm}: p_eta={pe:.4f} p_dual={pd:.4f} z={z:.2f}" for nm, pe, pd, z in results),
    )


@pytest.mark.slow
def test_criterion_08_critical_brackets():
    tree = LazyTree(4, 12, root="full_degree")
    tres = critical_estimate(
        tree, (0.12, 0.45), 20.0, 2_500, threshold=0.02, tol=0.03, seed=80
    )
    lo_lim, hi_lim = 1 / 5 - 0.05, 1 / 3 + 0.05
    tree_ok = lo_lim <= tres.lo and tres.hi <= hi_lim

    torus = build_torus(2, 32)
    cres = critical_estimate(
        torus, (0.15, 0.7), 20.0, 1_500, threshold=0.02, tol=0.05, seed=81
    )
    torus_ok = cres.estimate >= 0.20
    report(
        8,
        tree_ok and torus_ok,
        f"tree(4,12) bracket [{tres.lo:.4f},{tres.hi:.4f}] in [{lo_lim:.2f},{hi_lim:.4f}] "
        f"via {tres.estimator}; torus(2,32) estimate {cres.estimate:.4f} >= 0.20",
    )
