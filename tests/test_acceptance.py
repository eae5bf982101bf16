"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is asserted, so a plain pytest run is equally
binding.
"""

import time

import numpy as np

import tsnoether as tn


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def three_scales():
    return [
        tn.h_uniform(1.0, 0, 9),
        tn.h_uniform(0.5, 0, 4.5),
        tn.q_geometric(2.0, 1.0, 10),
    ]


def random_poly_gf(ts, seed, degree=3, n=1):
    rng = np.random.default_rng(seed)
    span = max(1.0, np.max(np.abs(ts.points)))
    cols = [
        np.polynomial.polynomial.polyval(ts.points / span, rng.uniform(-1, 1, degree + 1))
        for _ in range(n)
    ]
    return tn.GridFunction(ts, 0, np.column_stack(cols))


def random_quadratic(rng, n):
    A = rng.uniform(-1, 1, (n, n))
    B = rng.uniform(-1, 1, (n, n))
    C = rng.uniform(-1, 1, (n, n))
    A = (A + A.T) / 2
    B = (B + B.T) / 2
    d = rng.uniform(-1, 1, n)
    e = rng.uniform(-1, 1, n)
    return tn.Lagrangian(
        n=n,
        eval=lambda t, u, v: float(u @ A @ u + v @ B @ v + u @ C @ v + d @ u + e @ v),
        d_t=lambda t, u, v: 0.0,
        d_u=lambda t, u, v: 2 * A @ u + C @ v + d,
        d_v=lambda t, u, v: 2 * B @ v + C.T @ u + e,
    )


def test_criterion_1_calculus_exactness():
    start = time.perf_counter()
    scales = three_scales()
    worst_ibp = worst_green = worst_jump = 0.0
    for trial in range(200):
        ts = scales[trial % 3]
        f = random_poly_gf(ts, seed=[1, trial, 0])
        g = random_poly_gf(ts, seed=[1, trial, 1])
        lhs = tn.delta_integral(tn.delta_derivative(f) * tn.shift(g, 1))[0]
        boundary = f.values[-1, 0] * g.values[-1, 0] - f.values[0, 0] * g.values[0, 0]
        rhs = boundary - tn.delta_integral(f * tn.delta_derivative(g))[0]
        worst_ibp = max(worst_ibp, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))

        grid = tn.GridD((ts, scales[(trial + 1) % 3]))
        M = tn.random_polynomial_field(grid, seed=[1, trial, 2], degree=3)
        N = tn.random_polynomial_field(grid, seed=[1, trial, 3], degree=3)
        scale = max(1.0, np.max(np.abs(M.values)), np.max(np.abs(N.values)))
        worst_green = max(worst_green, tn.greens_residual(M, N) / scale)

        back = tn.shift(tn.shift(f, -1), 1)
        lo, hi = back.window
        gap = np.max(np.abs(back.values - f.values[lo - f.lo : hi - f.lo + 1]))
        for i in range(1, len(ts)):
            gap = max(gap, abs(ts.sigma(ts.rho(i)) - i))
        for i in range(len(ts) - 1):
            gap = max(gap, abs(ts.rho(ts.sigma(i)) - i))
        worst_jump = max(worst_jump, gap)
    elapsed = time.perf_counter() - start
    ok = worst_ibp <= 1e-12 and worst_green <= 1e-12 and worst_jump == 0.0 and elapsed < 5.0
    verdict(
        1,
        ok,
        f"ibp {worst_ibp:.2e}, green {worst_green:.2e}, jump {worst_jump:.1e}, {elapsed:.2f}s",
    )


def test_criterion_2_commutation():
    worst = 0.0
    for ts in three_scales():
        b1 = ts.condition_h[0]
        for trial in range(20):
            f = random_poly_gf(ts, seed=[2, trial], degree=4)
            sd = tn.mixed(f, 1, 1)
            ds = b1 * tn.shift(tn.delta_derivative(f, 1), 1)
            lo, hi = 0, len(ts) - 3
            a = sd.restrict(lo, hi).values
            b = ds.restrict(lo, hi).values
            worst = max(worst, np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(a))))
    verdict(2, worst <= 1e-12, f"max pointwise commutation gap {worst:.2e}")


def test_criterion_3_first_variation():
    scales = three_scales()
    worst = 0.0
    for trial in range(50):
        ts = scales[trial % 3]
        rng = np.random.default_rng([3, trial])
        n = 1 + trial % 2
        L = random_quadratic(rng, n)
        y = tn.GridFunction(ts, 0, rng.uniform(-1, 1, (len(ts), n)))
        ev = rng.uniform(-1, 1, (len(ts), n))
        ev[0] = ev[-1] = 0.0
        eta = tn.GridFunction(ts, 0, ev)
        got = tn.first_variation(L, y, eta)
        eps = 1e-5
        num = (tn.eval_functional(L, y + eps * eta) - tn.eval_functional(L, y - eps * eta)) / (2 * eps)
        worst = max(worst, abs(got - num) / max(1.0, abs(num)))
    verdict(3, worst <= 1e-6, f"max variation gap over 50 instances {worst:.2e}")


def test_criterion_4_el_solver():
    ts = tn.h_uniform(1.0, 0, 5)
    y = tn.solve_extremal(tn.catalog("dirichlet"), ts, tn.BoundaryData([0.0], [5.0]))
    line_gap = float(np.max(np.abs(y.values[:, 0] - np.arange(6.0))))
    worst_res = tn.el_residual(tn.catalog("dirichlet"), y).sup_norm
    for name, alpha, beta in (
        ("poisson", [0.0], [5.0]),
        ("quad:1:0.5:0.1:0.2", [0.3], [-1.0]),
        ("quad:2:0.5:0:0", [0.0, 1.0], [2.0, -1.0]),
    ):
        L = tn.catalog(name)
        sol = tn.solve_extremal(L, ts, tn.BoundaryData(alpha, beta))
        worst_res = max(worst_res, tn.el_residual(L, sol).sup_norm)
    ok = line_gap <= 1e-10 and worst_res <= 1e-8
    verdict(4, ok, f"straight line gap {line_gap:.2e}, worst solve residual {worst_res:.2e}")


def test_criterion_5_identity_and_corollaries():
    L2 = tn.catalog("pair-difference")
    worst_pass = 0.0
    worst_fail = np.inf
    for ts in (tn.h_uniform(0.5, 0, 5), tn.q_geometric(2.0, 1.0, 11)):
        fam = tn.GaugeFamily.constant(ts, [[[1.0], [1.0]]])
        rng = np.random.default_rng(5)
        y = tn.GridFunction(ts, 0, rng.uniform(-1, 1, (len(ts), 2)))
        worst_pass = max(worst_pass, tn.noether_identity(L2, fam, y)[0].sup_norm)
        broken = tn.GaugeFamily.constant(ts, [[[1.1], [1.0]]])
        worst_fail = min(worst_fail, tn.noether_identity(L2, broken, y)[0].sup_norm)

    worst_coro = 0.0
    Lq = tn.catalog("quad:1:0.5:0.3:0.1")
    for m in (0, 1, 2):
        for which in ("h", "q"):
            ts = tn.h_uniform(0.5, 0, 7) if which == "h" else tn.q_geometric(2.0, 1.0, 12)
            hi = len(ts) - 1 - m
            t = ts.points
            g_calls = [(lambda c: (lambda tt: 1 + c * tt / 50))(0.2 * (i + 1)) for i in range(m + 1)]
            g = ((tuple(tn.GridFunction(ts, 0, gc(t[: hi + 1])) for gc in g_calls),),)
            fam = tn.GaugeFamily(g)
            y = random_poly_gf(ts, seed=[5, m], n=1)
            y = y.restrict(0, hi)
            generic = tn.noether_identity(Lq, fam, y, tolerance=np.inf)[0].per_point[:, 0]
            if which == "h":
                coro = tn.identity_lhs_h_calculus(Lq, [g_calls], t[: hi + 1], y.values[:, 0], 0.5, m)
            else:
                coro = tn.identity_lhs_q_calculus(Lq, [g_calls], t[: hi + 1], y.values[:, 0], 2.0, m)
            k = generic.shape[0]
            gap = np.max(np.abs(generic - coro[:k]) / np.maximum(1.0, np.abs(generic)))
            worst_coro = max(worst_coro, float(gap))
    ok = worst_pass <= 1e-9 and worst_fail > 1e-3 and worst_coro <= 1e-12
    verdict(
        5,
        ok,
        f"identity {worst_pass:.2e}, broken control {worst_fail:.2e}, corollary gap {worst_coro:.2e}",
    )


def test_criterion_6_time_variant():
    # bitwise reduction at f == 0
    bitwise = True
    for ts in (tn.h_uniform(1.0, 0, 9), tn.q_geometric(2.0, 1.0, 10)):
        g = [[[1.0], [1.0]]]
        y = random_poly_gf(ts, seed=6, n=2)
        a = tn.noether_identity_time(
            tn.catalog("pair-difference"), tn.GaugeFamily.constant(ts, g, f=[[0.0]]), y
        )[0]
        b = tn.noether_identity(
            tn.catalog("pair-difference"), tn.GaugeFamily.constant(ts, g), y
        )[0]
        bitwise = bitwise and np.array_equal(a.per_point, b.per_point)
        bitwise = bitwise and a.sup_norm == b.sup_norm and a.l2_norm == b.l2_norm

    scales = three_scales()
    worst = 0.0
    for trial in range(50):
        ts = scales[trial % 3]
        rng = np.random.default_rng([6, trial])
        L = random_quadratic(rng, 1)
        y = tn.GridFunction(ts, 0, rng.uniform(-1, 1, (len(ts), 1)))
        analytic = tn.second_el_expression(L, y).values[:, 0]
        oracle = tn.second_el_via_reparametrization(L, y).values[:, 0]
        gap = np.max(np.abs(analytic - oracle)) / max(1.0, np.max(np.abs(analytic)))
        worst = max(worst, float(gap))
    ok = bitwise and worst <= 1e-5
    verdict(6, ok, f"bitwise reduction {bitwise}, oracle gap over 50 instances {worst:.2e}")


def test_criterion_7_fundamental_lemma():
    start = time.perf_counter()
    families = [
        lambda npts: tn.h_uniform(1.0, 0, npts - 1.0),
        lambda npts: tn.h_uniform(0.5, 0, 0.5 * (npts - 1)),
        lambda npts: tn.q_geometric(2.0, 1.0, npts),
    ]
    all_ok = True
    for fam_idx, make in enumerate(families):
        for m in (0, 1, 2):
            for npts in (7, 11, 15):
                ts = make(npts)
                rng = np.random.default_rng([7, fam_idx, m, npts])
                fs = tn.vanishing_coefficients(ts, m, rng)
                rep = tn.fundamental_lemma_oracle(ts, fs)
                all_ok = all_ok and rep.verdict and rep.consistent
                spiked = fs[0].values[:, 0].copy()
                upper = spiked.size
                spiked[max(0, min(upper - 1 - m, upper // 2))] += 0.5
                rep2 = tn.fundamental_lemma_oracle(
                    ts, [tn.GridFunction(ts, 0, spiked)] + fs[1:]
                )
                all_ok = all_ok and (not rep2.verdict) and rep2.consistent
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 10.0
    verdict(7, ok, f"all constructed/impulse cases behaved, {elapsed:.2f}s")


def test_criterion_8_multi_integral():
    grid = tn.GridD((tn.h_uniform(1.0, 0, 4), tn.h_uniform(1.0, 0, 4)))
    rng = np.random.default_rng(8)
    fam = tn.GaugeFamilyD.constant(grid, [(0.7, -1.2, 0.9)])
    pv = np.zeros(grid.shape)
    pv[2, 2] = rng.uniform(0.5, 1.0)
    p = tn.FieldD(grid, (0, 0), pv)
    q = tn.FieldD(grid, (0, 0), rng.uniform(-1, 1, grid.shape))
    lhs, rhs = tn.gauge_pairing(fam, p, q, 0)
    adj_gap = abs(lhs - rhs) / max(1.0, abs(lhs))

    spike = np.zeros(grid.shape)
    spike[1, 2] = 0.6
    ints, sup, consistent = tn.double_fundamental_oracle(tn.FieldD(grid, (0, 0), spike))
    impulse_ok = ints > 1e-3 and consistent
    zints, zsup, zcons = tn.double_fundamental_oracle(
        tn.FieldD(grid, (0, 0), np.zeros(grid.shape))
    )
    impulse_ok = impulse_ok and zints == 0.0 and zcons

    grid6 = tn.GridD((tn.h_uniform(1.0, 0, 5), tn.q_geometric(2.0, 1.0, 6)))
    L = tn.catalog2d("curl2")
    fam_ok = tn.GaugeFamilyD.constant(grid6, [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    fam_bad = tn.GaugeFamilyD.constant(grid6, [(0.0, 1.1, 0.0), (0.0, 0.0, 1.0)])
    rng6 = np.random.default_rng(86)
    u = tuple(tn.FieldD(grid6, (0, 0), rng6.uniform(-1, 1, grid6.shape)) for _ in range(2))
    good = tn.noether_identity_d(L, fam_ok, u).sup_norm
    bad = tn.noether_identity_d(L, fam_bad, u).sup_norm
    ok = adj_gap <= 1e-12 and impulse_ok and good <= 1e-9 and bad > 1e-3
    verdict(
        8,
        ok,
        f"adjoint {adj_gap:.2e}, impulse ok {impulse_ok}, identity {good:.2e}, broken {bad:.2e}",
    )


def test_criterion_9_em_example():
    start = time.perf_counter()
    grid = tn.default_lattice(6)
    L = tn.em_lagrangian()
    fam = tn.em_gauge_family(grid)
    worst_gauge = 0.0
    for trial in range(50):
        F_t = tn.random_em_field(grid, seed=[9, 0, trial], degree=2)
        base = tn.em_functional(F_t)
        p = tn.random_polynomial_field(grid, seed=[9, 1, trial])
        # -p: A_k + (Delta_k p)^rho_k under the family's A_k - (Delta_k p)^rho_k
        dev = abs(tn.em_functional(tn.EMField(grid, tn.transform_d(fam, -p, F_t.A))) - base)
        worst_gauge = max(worst_gauge, dev / max(1.0, abs(base)))
    F = tn.random_em_field(grid, seed=[9, 0], degree=2)
    ident = tn.noether_identity_d(L, fam, F.A).sup_norm

    FL = tn.lorentz_field(grid)
    lorentz = tn.em_lorentz_check(FL).sup_norm
    wave = tn.em_wave_reduction_residual(FL).sup_norm

    mixed = tn.GridD(
        (
            tn.h_uniform(1.0, 0, 5),
            tn.q_geometric(2.0, 1.0, 6),
            tn.h_uniform(1.0, 0, 5),
            tn.h_uniform(1.0, 0, 5),
        )
    )
    F_mixed = tn.random_em_field(mixed, seed=[9, 2], degree=2)
    ident_mixed = tn.noether_identity_d(L, tn.em_gauge_family(mixed), F_mixed.A).sup_norm
    elapsed = time.perf_counter() - start
    ok = (
        worst_gauge <= 1e-12
        and ident <= 1e-9
        and lorentz <= 1e-10
        and wave <= 1e-9
        and ident_mixed <= 1e-9
        and elapsed < 30.0
    )
    verdict(
        9,
        ok,
        f"gauge {worst_gauge:.2e}, identity {ident:.2e}/{ident_mixed:.2e} (mixed), "
        f"lorentz {lorentz:.1e}, wave {wave:.1e}, {elapsed:.2f}s",
    )


def test_criterion_10_continuum_consistency():
    L = tn.catalog("quad:1:0.5:-0.5:0")
    el_sups, time_sups = [], []
    for h in (0.1, 0.05, 0.025):
        ts = tn.real_approx(h, 0.0, 2.0)
        y = tn.GridFunction.from_callable(ts, lambda t: np.sin(t))
        el_sups.append(tn.el_residual(L, y).sup_norm)
        fam = tn.GaugeFamily.constant(ts, [[[0.0]]], f=[[1.0]])
        time_sups.append(tn.noether_identity_time(L, fam, y, tolerance=np.inf)[0].sup_norm)
    el_mono = el_sups[0] > el_sups[1] > el_sups[2]
    el_rate = el_sups[1] / el_sups[0] < 0.75 and el_sups[2] / el_sups[1] < 0.75
    t_mono = time_sups[0] > time_sups[1] > time_sups[2]
    t_rate = time_sups[1] / time_sups[0] < 0.75 and time_sups[2] / time_sups[1] < 0.75
    ok = el_mono and el_rate and t_mono and t_rate
    verdict(
        10,
        ok,
        "EL residuals " + "/".join(f"{s:.1e}" for s in el_sups)
        + ", identity residuals " + "/".join(f"{s:.1e}" for s in time_sups),
    )
