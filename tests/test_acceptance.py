"""Acceptance battery: every top-level claim at its stated tolerance.

One test per criterion; each prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live). All
randomness is seeded, so the battery is bit-reproducible.
"""
import hashlib
import itertools
import math
import subprocess
import sys
import time

import numpy as np
from scipy.optimize import linear_sum_assignment

from couplings import pair_coupling, pushforward
from lipctx import serialize
from lipctx.certify import (
    context_lipschitz_bound,
    certify_model,
    empirical_query_lipschitz,
    jacobian_fd_check,
    potential_grad_check,
    random_clamped_model,
    sample_in_ball,
)
from lipctx.constructions import (
    kr_integrator,
    lattice_combine,
    parallel_attention,
    rsw_interpolate,
    separator,
)
from lipctx.critic import Critic, TrainConfig, critic_value, project_params, train_critic
from lipctx.layers import (
    AttentionLayer,
    attn_covariance,
    attn_forward,
    attn_step_bound,
)
from lipctx.measure import (
    DomainBall,
    new_empirical,
    w1_exact,
    w1_exact_1d,
)
from lipctx.transformer import Lifting, evaluate


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def _random_attention(rng, dim, radius=None, eta_lo=0.1):
    radius = float(rng.uniform(0.4, 1.5)) if radius is None else radius
    dom = DomainBall(rng.normal(size=dim) * 0.2, radius)
    a = rng.normal(size=(dim, dim)) / math.sqrt(dim)
    eta = float(rng.uniform(eta_lo, 1.0)) * attn_step_bound(a, dom)
    return AttentionLayer(a, eta, dom)


def _measure_in(rng, ball, lo, hi, weighted=False):
    n = int(rng.integers(lo, hi + 1))
    pts = sample_in_ball(rng, ball, n)
    w = rng.random(n) + 0.1 if weighted else None
    return new_empirical(pts, w)


def test_criterion_01_query_lipschitz_certificate():
    """100 clamped models, 20 measures x 500 query pairs, ratio <= 1 + 1e-9."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(100):
        d = int(rng.integers(2, 9))
        h = int(rng.integers(2, 17))
        depth = int(rng.integers(1, 5))
        model = random_clamped_model(d, h, depth, seed=10_000 + i)
        entry, _ = empirical_query_lipschitz(model, 20, 500, seed=20_000 + i)
        assert entry.passed, f"model {i}: stat {entry.stat}"
        worst = max(worst, entry.stat)
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 + 1e-9 and elapsed <= 120.0
    _report(1, "query-lipschitz", ok,
            f"max ratio {worst:.12f}, {elapsed:.1f}s for 1e6 pairs")


def test_criterion_02_jacobian_covariance_identity():
    """Analytic vs FD Jacobian <= 1e-5; symmetry 1e-12; covariance PSD."""
    rng = np.random.default_rng(202)
    worst_fd, worst_asym, worst_psd = 0.0, 0.0, 0.0
    for _ in range(100):
        layer = _random_attention(rng, int(rng.integers(1, 7)))
        interior = DomainBall(layer.domain.center, layer.domain.radius * 0.8)
        mu = _measure_in(rng, interior, 1, 12)
        x = sample_in_ball(rng, interior, 1)[0]
        worst_fd = max(worst_fd, jacobian_fd_check(layer, mu, x))
        jac = np.eye(layer.dim) - layer.eta * attn_covariance(layer, mu, x)
        worst_asym = max(worst_asym, float(np.max(np.abs(jac - jac.T))))
        if layer.eta > 0:
            cov = (np.eye(layer.dim) - jac) / layer.eta
            worst_psd = max(worst_psd, -float(np.linalg.eigvalsh(cov)[0]))
    ok = worst_fd <= 1e-5 and worst_asym <= 1e-12 and worst_psd <= 1e-12
    _report(2, "jacobian-covariance", ok,
            f"fd {worst_fd:.2e}, asym {worst_asym:.2e}, psd {worst_psd:.2e}")


def test_criterion_03_gradient_flow_identity():
    """Update equals -eta * grad(potential) within 1e-5; m(x) checked directly."""
    rng = np.random.default_rng(303)
    worst_update, worst_mean = 0.0, 0.0
    for _ in range(100):
        layer = _random_attention(rng, int(rng.integers(1, 7)))
        assert layer.eta > 0
        interior = DomainBall(layer.domain.center, layer.domain.radius * 0.8)
        mu = _measure_in(rng, interior, 1, 12)
        x = sample_in_ball(rng, interior, 1)[0]
        worst_update = max(worst_update, potential_grad_check(layer, mu, x))
        zero_step = AttentionLayer(layer.A, 0.0, layer.domain)
        worst_mean = max(worst_mean, potential_grad_check(zero_step, mu, x))
    ok = worst_update <= 1e-5 and worst_mean <= 1e-5
    _report(3, "gradient-flow", ok,
            f"update {worst_update:.2e}, softmax-mean {worst_mean:.2e}")


def test_criterion_04_parallel_attention_exactness():
    """Composite of two block layers equals stacked outputs, both couplings."""
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        g = _random_attention(rng, int(rng.integers(1, 4)), eta_lo=0.2)
        gp = _random_attention(rng, int(rng.integers(1, 4)), eta_lo=0.2)
        l1, l2 = parallel_attention(g, gp)
        x = sample_in_ball(rng, g.domain, 1)[0]
        xp = sample_in_ball(rng, gp.domain, 1)[0]
        n = int(rng.integers(2, 6))
        for nup_n in (n, n + 1):  # index-paired, then product coupling
            mu = _measure_in(rng, g.domain, n, n)
            nup = _measure_in(rng, gp.domain, nup_n, nup_n)
            gamma = pair_coupling(mu, nup).as_measure()
            q = np.concatenate([x, xp])
            q1 = attn_forward(l1, gamma, q)
            g1 = pushforward(gamma, lambda p: attn_forward(l1, gamma, p))
            got = attn_forward(l2, g1, q1)
            want = np.concatenate(
                [attn_forward(g, mu, x), attn_forward(gp, nup, xp)]
            )
            worst = max(worst, float(np.max(np.abs(got - want))))
    _report(4, "parallel-attention", worst <= 1e-9, f"max gap {worst:.2e}")


def test_criterion_05_lattice_exactness():
    """Combined model matches scalar min/max on 100 instances; lattice identity."""
    rng = np.random.default_rng(505)
    worst_op, worst_identity = 0.0, 0.0
    for pair in range(20):
        a = random_clamped_model(2, int(rng.integers(2, 6)),
                                 int(rng.integers(0, 3)), seed=30_000 + pair)
        b = random_clamped_model(2, int(rng.integers(2, 6)),
                                 int(rng.integers(0, 3)), seed=31_000 + pair)
        lo = lattice_combine(a, b, "min")
        hi = lattice_combine(a, b, "max")
        for _ in range(5):
            mu = _measure_in(rng, a.input_domain, 1, 6)
            x = sample_in_ball(rng, a.input_domain, 1)[0]
            va, vb = evaluate(a, mu, x), evaluate(b, mu, x)
            got_lo, got_hi = evaluate(lo, mu, x), evaluate(hi, mu, x)
            worst_op = max(worst_op, abs(got_lo - min(va, vb)),
                           abs(got_hi - max(va, vb)))
            worst_identity = max(worst_identity, abs(got_lo + got_hi - (va + vb)))
    ok = worst_op <= 1e-9 and worst_identity <= 1e-9
    _report(5, "lattice", ok,
            f"minmax gap {worst_op:.2e}, identity gap {worst_identity:.2e}")


def test_criterion_06_kr_integration_layer():
    """Output query-independent (spread <= 1e-12) and equals C * mean critic."""
    rng = np.random.default_rng(606)
    worst_spread, worst_value = 0.0, 0.0
    for i in range(50):
        width = int(rng.integers(3, 7))
        depth = int(rng.integers(0, 2))
        lift = Lifting(rng.normal(size=(width, 2)), rng.normal(size=width) * 0.2)
        stack = []
        if depth:
            from lipctx.layers import MlpLayer, clamp_step, spectral_norm

            w = rng.normal(size=(width, width))
            stack.append(MlpLayer(w, rng.normal(size=width) * 0.2,
                                  clamp_step(0.5, spectral_norm(w), 0.0)))
        crit = project_params(Critic(lift, tuple(stack), rng.normal(size=width)))
        dom = DomainBall(np.zeros(2), float(rng.uniform(0.5, 1.5)))
        c_budget = float(rng.uniform(0.5, 3.0))
        model = kr_integrator(crit, c_budget, dom)
        nu = _measure_in(rng, dom, 1, 8, weighted=True)
        queries = sample_in_ball(rng, dom, 100)
        values = np.array([evaluate(model, nu, q) for q in queries])
        worst_spread = max(worst_spread, float(values.max() - values.min()))
        oracle = c_budget * float(
            sum(w * critic_value(crit, p) for p, w in zip(nu.points, nu.weights))
        )
        worst_value = max(worst_value, abs(float(values[0]) - oracle))
    ok = worst_spread <= 1e-12 and worst_value <= 1e-9
    _report(6, "kr-integration", ok,
            f"spread {worst_spread:.2e}, value gap {worst_value:.2e}")


def test_criterion_07_exact_w1_oracle_agreement():
    """LP vs 1D CDF, vs brute force + assignment, and metric axioms."""
    rng = np.random.default_rng(707)
    worst_1d = 0.0
    for _ in range(200):
        n, m = rng.integers(1, 9, 2)
        mu = new_empirical(rng.uniform(-3, 3, (int(n), 1)),
                           weights=rng.random(int(n)) + 0.05)
        nu = new_empirical(rng.uniform(-3, 3, (int(m), 1)),
                           weights=rng.random(int(m)) + 0.05)
        worst_1d = max(worst_1d, abs(w1_exact(mu, nu) - w1_exact_1d(mu, nu)))
    worst_perm = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        xs, ys = rng.uniform(-2, 2, (n, d)), rng.uniform(-2, 2, (n, d))
        cost = np.linalg.norm(xs[:, None, :] - ys[None, :, :], axis=2)
        brute = min(
            float(np.mean([cost[k, p[k]] for k in range(n)]))
            for p in itertools.permutations(range(n))
        )
        rows, cols = linear_sum_assignment(cost)
        lp = w1_exact(new_empirical(xs), new_empirical(ys))
        worst_perm = max(worst_perm, abs(lp - brute),
                         abs(lp - float(cost[rows, cols].mean())))
    worst_sym, worst_id, worst_tri = 0.0, 0.0, 0.0
    for _ in range(100):
        a, b, c = (
            new_empirical(rng.normal(size=(int(rng.integers(1, 6)), 2)))
            for _ in range(3)
        )
        worst_sym = max(worst_sym, abs(w1_exact(a, b) - w1_exact(b, a)))
        worst_id = max(worst_id, w1_exact(a, a))
        worst_tri = max(worst_tri,
                        w1_exact(a, c) - w1_exact(a, b) - w1_exact(b, c))
    ok = (worst_1d <= 1e-9 and worst_perm <= 1e-9 and worst_sym <= 1e-9
          and worst_id <= 1e-9 and worst_tri <= 1e-8)
    _report(7, "w1-oracle", ok,
            f"1d {worst_1d:.2e}, perm {worst_perm:.2e}, sym {worst_sym:.2e}, "
            f"id {worst_id:.2e}, tri {worst_tri:.2e}")


def test_criterion_08_duality_soundness_and_training():
    """Every critic iterate respects duality; known optima are reached."""
    rng = np.random.default_rng(808)
    # (a) 50 runs, every intermediate objective <= exact W1 + 1e-9
    sound = True
    worst_excess = -np.inf
    for i in range(50):
        d = int(rng.integers(1, 3))
        mu = new_empirical(rng.uniform(-1, 1, (int(rng.integers(2, 9)), d)))
        nu = new_empirical(rng.uniform(-1, 1, (int(rng.integers(2, 9)), d)))
        exact = w1_exact(mu, nu)
        trace = []
        cfg = TrainConfig(iterations=120, step_size=0.25, seed=i, width=8, depth=1)
        train_critic(mu, nu, cfg, on_iterate=lambda t, obj: trace.append(obj))
        excess = max(trace) - exact
        worst_excess = max(worst_excess, excess)
        sound = sound and excess <= 1e-9
    # (b) point masses at distance one: optimum within 1e3 iterations
    mu, nu = new_empirical([[0.0]]), new_empirical([[1.0]])
    cfg = TrainConfig(iterations=1000, step_size=0.1, seed=0, width=4, depth=0)
    _, est_delta = train_critic(mu, nu, cfg)
    # (c) 16-atom 1D uniform clouds: >= 0.9 * exact within 5e3 iterations
    cloud_rng = np.random.default_rng(2024)
    worst_cloud = np.inf
    for i in range(5):
        c1, c2 = cloud_rng.uniform(-1, 1, 2)
        r1, r2 = cloud_rng.uniform(0.3, 1.0, 2)
        m1 = new_empirical(cloud_rng.uniform(c1 - r1, c1 + r1, (16, 1)))
        m2 = new_empirical(cloud_rng.uniform(c2 - r2, c2 + r2, (16, 1)))
        exact = w1_exact_1d(m1, m2)
        cfg = TrainConfig(iterations=5000, step_size=0.25, seed=i, width=24, depth=2)
        _, est = train_critic(m1, m2, cfg, target=0.95 * exact)
        worst_cloud = min(worst_cloud, est / exact)
    ok = sound and est_delta >= 0.999 and worst_cloud >= 0.9
    _report(8, "duality", ok,
            f"max excess {worst_excess:.2e}, delta est {est_delta:.6f}, "
            f"min cloud ratio {worst_cloud:.4f}")


def test_criterion_09_separator_exactness():
    """50 strict-margin instances: anchors within 1e-9 and (1,C)-Lipschitz."""
    rng = np.random.default_rng(909)
    cfg = TrainConfig(iterations=800, step_size=0.25, seed=0, width=8, depth=1)
    worst_anchor, worst_ratio = 0.0, 0.0
    for i in range(50):
        c1 = rng.uniform(-1, 1, 2)
        c2 = rng.uniform(-1, 1, 2)
        mu = new_empirical(c1 + rng.normal(size=(int(rng.integers(2, 6)), 2)) * 0.3)
        nu = new_empirical(c2 + rng.normal(size=(int(rng.integers(2, 6)), 2)) * 0.3)
        x, xp = rng.uniform(-1, 1, (2, 2))
        c_budget = float(rng.uniform(0.5, 2.0))
        span = float(np.linalg.norm(x - xp)) + c_budget * w1_exact(mu, nu)
        delta = float(rng.uniform(0.2, 1.0)) * 0.85 * span
        mid = float(rng.uniform(-1, 1))
        a_t, b_t = mid + delta / 2, mid - delta / 2
        model = separator(mu, x, nu, xp, a_t, b_t, c_budget, eps=0.05,
                          train_cfg=cfg)
        worst_anchor = max(worst_anchor,
                           abs(evaluate(model, mu, x) - a_t),
                           abs(evaluate(model, nu, xp) - b_t))
        dom = model.input_domain
        probe_ball = DomainBall(dom.center, dom.radius * 0.5)
        for _ in range(30):
            m1 = _measure_in(rng, probe_ball, 2, 4)
            m2 = _measure_in(rng, probe_ball, 2, 4)
            z1, z2 = sample_in_ball(rng, probe_ball, 2)
            allowed = float(np.linalg.norm(z1 - z2)) + c_budget * w1_exact(m1, m2)
            if allowed < 1e-9:
                continue
            diff = abs(evaluate(model, m1, z1) - evaluate(model, m2, z2))
            worst_ratio = max(worst_ratio, diff / allowed)
    ok = worst_anchor <= 1e-9 and worst_ratio <= 1 + 1e-9
    _report(9, "separator", ok,
            f"anchor {worst_anchor:.2e}, lipschitz ratio {worst_ratio:.6f}")


def test_criterion_10_finite_rsw_interpolation():
    """20 compatible-sample instances: targets to 1e-6, 1e3 probes each."""
    rng = np.random.default_rng(1010)
    cfg = TrainConfig(iterations=800, step_size=0.25, seed=0, width=8, depth=1)
    sizes = [2] * 5 + [3] * 6 + [4] * 5 + [5] * 3 + [6]
    ball = DomainBall(np.zeros(2), 1.0)
    worst_target, worst_ratio = 0.0, 0.0
    for inst, n in enumerate(sizes):
        c_budget = float(rng.uniform(0.8, 2.0))
        anchor = rng.uniform(-1, 1, 2)
        vdir = rng.normal(size=2)
        vdir /= np.linalg.norm(vdir)
        samples = []
        for _ in range(n):
            m = _measure_in(rng, ball, 2, 4)
            q = sample_in_ball(rng, ball, 1)[0]
            val = float(vdir @ q) + c_budget * float(
                sum(w * np.linalg.norm(p - anchor) for p, w in zip(m.points, m.weights))
            )
            samples.append((m, q, 0.75 * val))
        pair_cfg = TrainConfig(iterations=cfg.iterations, step_size=cfg.step_size,
                               seed=inst, width=cfg.width, depth=cfg.depth)
        model = rsw_interpolate(samples, c_budget, train_cfg=pair_cfg)
        for m, q, t in samples:
            worst_target = max(worst_target, abs(evaluate(model, m, q) - t))
        for _ in range(1000):
            m1 = _measure_in(rng, ball, 2, 3)
            m2 = _measure_in(rng, ball, 2, 3)
            z1, z2 = sample_in_ball(rng, ball, 2)
            allowed = float(np.linalg.norm(z1 - z2)) + c_budget * w1_exact(m1, m2)
            if allowed < 1e-9:
                continue
            diff = abs(evaluate(model, m1, z1) - evaluate(model, m2, z2))
            worst_ratio = max(worst_ratio, diff / allowed)
    ok = worst_target <= 1e-6 and worst_ratio <= 1 + 1e-6
    _report(10, "rsw-interpolation", ok,
            f"target {worst_target:.2e}, lipschitz ratio {worst_ratio:.6f}")


def test_criterion_11_context_bound_soundness():
    """Single-layer empirical ratios never exceed the assembled C1."""
    rng = np.random.default_rng(1111)
    worst_frac = 0.0
    for layer_idx in range(20):
        layer = _random_attention(rng, 2, radius=float(rng.uniform(0.3, 1.5)))
        cc = context_lipschitz_bound(layer)
        assert not cc.vacuous
        checked = 0
        for _ in range(1000):
            mu = _measure_in(rng, layer.domain, 2, 5)
            nu = _measure_in(rng, layer.domain, 2, 5)
            gap = w1_exact(mu, nu)
            if gap < 1e-9:
                continue
            x = sample_in_ball(rng, layer.domain, 1)[0]
            diff = float(np.linalg.norm(
                attn_forward(layer, mu, x) - attn_forward(layer, nu, x)
            ))
            worst_frac = max(worst_frac, diff / (gap * cc.c1))
            checked += 1
        assert checked > 900
    _report(11, "context-bound", worst_frac <= 1 + 1e-9,
            f"max ratio/C1 {worst_frac:.6f}")


def test_criterion_12_determinism():
    """Bit-identical reports: twice in-process and across two processes."""
    model = random_clamped_model(3, 6, 2, seed=1212)
    reports = [
        serialize.dumps(serialize.report_to_json(
            certify_model(model, n_measures=3, n_pairs=50, seed=9,
                          context_anchors=2, context_pairs=5, fd_trials=4)
        ))
        for _ in range(2)
    ]
    in_process_equal = reports[0] == reports[1]

    mu = new_empirical([[0.0], [0.4], [1.0]])
    nu = new_empirical([[0.2], [0.9]])
    cfg = TrainConfig(iterations=60, step_size=0.25, seed=3, width=6, depth=1)
    critics = [train_critic(mu, nu, cfg)[0] for _ in range(2)]
    training_equal = (
        np.array_equal(critics[0].lifting.A, critics[1].lifting.A)
        and np.array_equal(critics[0].readout, critics[1].readout)
        and all(
            np.array_equal(l1.W, l2.W) and l1.tau == l2.tau
            for l1, l2 in zip(critics[0].stack, critics[1].stack)
        )
    )

    snippet = (
        "import hashlib\n"
        "from lipctx import serialize\n"
        "from lipctx.certify import certify_model, random_clamped_model\n"
        "model = random_clamped_model(3, 6, 2, seed=1212)\n"
        "rep = certify_model(model, n_measures=3, n_pairs=50, seed=9,\n"
        "                    context_anchors=2, context_pairs=5, fd_trials=4)\n"
        "text = serialize.dumps(serialize.report_to_json(rep))\n"
        "print(hashlib.sha256(text.encode()).hexdigest())\n"
    )
    digests = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", snippet],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    local_digest = hashlib.sha256(reports[0].encode()).hexdigest()
    cross_process_equal = digests[0] == digests[1] == local_digest

    ok = in_process_equal and training_equal and cross_process_equal
    _report(12, "determinism", ok,
            f"in-process {in_process_equal}, training {training_equal}, "
            f"cross-process {cross_process_equal}")
