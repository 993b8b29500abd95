"""Acceptance suite: one test (or test group) per numbered criterion.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on passing tests).  Criterion 6b checks the paper's convergence claim: it
compares the mean of each learning curve over each phase (the area under the
curve, a speed measure that no single sample decides) rather than the
steady-state floors, and takes its bs-mip-apsa curve from the block_balanced
gain variant, the one README's "Behavior notes" name as giving the paper's
ordering.

Absolute dB levels and time axes are not asserted anywhere: convergence
curves are seed- and protocol-specific, so the suite checks invariants,
equivalences, and orderings instead.
"""

import time

import numpy as np
import pytest
from scipy.signal import lfilter

from apsabench.cli import main
from apsabench.echo_path import PathSchedule, make_block_sparse
from apsabench.filters import (
    STEPPERS,
    FilterParams,
    FilterState,
    GainVariant,
    bs_gains,
    ip_gains,
)
from apsabench.harness import PATH_STREAM, SWITCHED_PATH_STREAM, ExperimentConfig, run_ensemble
from apsabench.signals import (
    NoiseModel,
    SeededStream,
    ar1_colored,
    bernoulli_gaussian,
    scale_to_ratio,
    white_gaussian,
)

MU, EPS, DELTA, ALPHA, M, P = 0.001, 0.01, 0.01, 0.0, 2, 4  # reference parameters


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def _sample_stream(seed, L, n):
    """Colored input, impulses on: the shared protocol for criteria 1-2."""
    x = ar1_colored(n, 0.8, SeededStream(seed, 1))
    h = make_block_sparse(L, [(L // 4, L // 2)], SeededStream(seed, 0)).taps
    clean = lfilter(h, [1.0], x)
    background = scale_to_ratio(clean, white_gaussian(n, SeededStream(seed, 2)), 40.0)
    impulses = scale_to_ratio(
        clean, bernoulli_gaussian(n, 0.1, SeededStream(seed, 3)), 0.0
    )
    return x, clean + background + impulses


def _relative_gap(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return np.linalg.norm(a - b) / denom


def test_criterion_1_block_length_one_equals_per_tap_algorithm():
    started = time.process_time()
    worst = 0.0
    for seed in (101, 102, 103):
        x, y = _sample_stream(seed, 64, 1000)
        params = FilterParams(
            filter_length=64, projection_order=M, block_length=1, step_size=MU,
            proportionate_mix=ALPHA, gain_regularizer=EPS, update_regularizer=DELTA,
            gain_variant=GainVariant.MIP_CONSISTENT,
        )
        s_mip, s_bs = FilterState.zeros(params), FilterState.zeros(params)
        for n in range(1000):
            STEPPERS["mip-apsa"](s_mip, params, x[n], y[n])
            STEPPERS["bs-mip-apsa"](s_bs, params, x[n], y[n])
            worst = max(worst, _relative_gap(s_mip.weights, s_bs.weights))
    elapsed = time.process_time() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(1, ok, f"P=1 vs per-tap worst relative gap {worst:.3e} over 3 seeds x 1000 iters ({elapsed:.1f} s cpu)")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_2_full_length_block_degenerates_to_apsa():
    started = time.process_time()
    worst = 0.0
    for seed in (201, 202, 203):
        L = 64
        x, y = _sample_stream(seed, L, 1000)
        params = FilterParams(
            filter_length=L, projection_order=M, block_length=L, step_size=MU,
            proportionate_mix=ALPHA, gain_regularizer=0.0, update_regularizer=0.0,
        )
        s_apsa, s_bs = FilterState.zeros(params), FilterState.zeros(params)
        for n in range(1000):
            STEPPERS["apsa"](s_apsa, params, x[n], y[n])
            STEPPERS["bs-mip-apsa"](s_bs, params, x[n], y[n])
            worst = max(worst, _relative_gap(s_apsa.weights, s_bs.weights))
    elapsed = time.process_time() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(2, ok, f"P=L (eps=delta=0) vs APSA worst relative gap {worst:.3e} over 3 seeds x 1000 iters ({elapsed:.1f} s cpu)")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_3_update_norm_bounded_under_huge_impulses():
    started = time.process_time()
    L, n = 64, 10_000
    x = ar1_colored(n, 0.8, SeededStream(301, 1))
    h = make_block_sparse(L, [(16, 32)], SeededStream(301, 0)).taps
    clean = lfilter(h, [1.0], x)
    rng = np.random.default_rng(301)
    hits = rng.random(n) < 0.1
    y = clean + np.where(hits, 1e6 * np.sign(rng.standard_normal(n)), 0.0)

    params = FilterParams(
        filter_length=L, projection_order=M, block_length=P, step_size=MU,
        proportionate_mix=ALPHA, gain_regularizer=EPS, update_regularizer=DELTA,
    )
    violations = 0
    worst = 0.0
    for step in STEPPERS.values():
        state = FilterState.zeros(params)
        for i in range(n):
            before = state.weights.copy()
            step(state, params, x[i], y[i])
            moved = float(np.linalg.norm(state.weights - before))
            worst = max(worst, moved)
            if moved > MU:
                violations += 1
        assert np.all(np.isfinite(state.weights))
    elapsed = time.process_time() - started
    ok = violations == 0 and elapsed < 10.0
    _report(3, ok, f"{violations} violations of |dh| <= mu over 3 algos x 1e4 iters with 1e6 impulses, max step {worst:.3e} ({elapsed:.1f} s cpu)")
    assert violations == 0
    assert elapsed < 10.0


def test_criterion_4_gain_sum_identities_and_positivity():
    started = time.process_time()
    rng = np.random.default_rng(401)
    grid = [(4, 2), (8, 4), (12, 3), (16, 4), (32, 8), (64, 4)]
    worst = 0.0
    for _ in range(1000):
        L, P_ = grid[rng.integers(len(grid))]
        N = L // P_
        alpha = rng.uniform(-1.0, 0.999)
        w = rng.standard_normal(L)
        assert np.sum(np.abs(w)) > 0.0

        rel = abs(ip_gains(w, alpha, 0.0).sum() - 1.0)
        worst = max(worst, rel)
        mc = bs_gains(w, P_, alpha, 0.0, GainVariant.MIP_CONSISTENT).sum()
        ap = bs_gains(w, P_, alpha, 0.0, GainVariant.AS_PRINTED).sum()
        mc_expected = (1 - alpha) / 2 + P_ * (1 + alpha) / 2
        ap_expected = (1 - alpha) / 2 + (P_ / N) * (1 + alpha) / 2
        worst = max(worst, abs(mc - mc_expected) / mc_expected)
        worst = max(worst, abs(ap - ap_expected) / ap_expected)

        eps = 10.0 ** rng.uniform(-8, 0)
        assert np.all(ip_gains(w, alpha, eps) > 0.0)
        assert np.all(bs_gains(w, P_, alpha, eps, GainVariant.MIP_CONSISTENT) > 0.0)
        assert np.all(bs_gains(w, P_, alpha, eps, GainVariant.AS_PRINTED) > 0.0)
    elapsed = time.process_time() - started
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(4, ok, f"1000 random cases, worst relative sum error {worst:.3e} ({elapsed:.2f} s cpu)")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_5_memory_matches_bruteforce_history():
    started = time.process_time()
    rng = np.random.default_rng(501)
    L, M_, n = 8, 3, 100
    params = FilterParams(filter_length=L, projection_order=M_, block_length=4,
                          step_size=0.02, proportionate_mix=ALPHA,
                          gain_regularizer=EPS, update_regularizer=DELTA)
    mismatches = 0
    for step, gain_fn in (
        (STEPPERS["mip-apsa"], lambda w: ip_gains(w, params.proportionate_mix, params.gain_regularizer)),
        (STEPPERS["bs-mip-apsa"], lambda w: bs_gains(w, params.block_length, params.proportionate_mix,
                                              params.gain_regularizer, params.gain_variant)),
    ):
        state = FilterState.zeros(params)
        x_log, gain_log = [], []
        for _ in range(n):
            xn = rng.standard_normal()
            gain_log.append(gain_fn(state.weights))
            x_log.append(xn)
            step(state, params, xn, rng.standard_normal())
            for j in range(M_):
                k = len(x_log) - 1 - j
                expected = np.zeros(L)
                if k >= 0:
                    x_vec = np.array(
                        [x_log[k - t] if k - t >= 0 else 0.0 for t in range(L)]
                    )
                    expected = gain_log[k] * x_vec
                if not np.array_equal(state.memory[:, j], expected):
                    mismatches += 1
    elapsed = time.process_time() - started
    ok = mismatches == 0 and elapsed < 1.0
    _report(5, ok, f"memory columns vs brute-force history: {mismatches} mismatches over 100-step runs ({elapsed:.2f} s cpu)")
    assert mismatches == 0
    assert elapsed < 1.0


def _tracking_benchmark_config(gain_variant, algorithms=("apsa", "mip-apsa", "bs-mip-apsa")):
    """The pinned tracking-benchmark protocol of criterion 6."""
    L = 128
    params = FilterParams(
        filter_length=L, projection_order=M, block_length=P, step_size=MU,
        proportionate_mix=ALPHA, gain_regularizer=EPS, update_regularizer=DELTA,
        gain_variant=gain_variant,
    )
    schedule = PathSchedule(
        initial=make_block_sparse(L, [(24, 32)], SeededStream(601, PATH_STREAM)),
        switched=make_block_sparse(
            L, [(16, 16), (88, 16)], SeededStream(601, SWITCHED_PATH_STREAM)
        ),
        switch_iteration=20_000,
    )
    return ExperimentConfig(
        params=params, schedule=schedule, input_kind="ar1", pole=0.8,
        noise=NoiseModel(snr_db=40.0, sir_db=0.0, impulse_probability=0.1),
        iterations=40_000, trials=10, base_seed=601, algorithms=algorithms,
    )


@pytest.fixture(scope="module")
def tracking_benchmark_ensemble():
    """The pinned tracking-benchmark protocol, run once and shared by 6a-6c."""
    config = _tracking_benchmark_config(GainVariant.MIP_CONSISTENT)
    started = time.perf_counter()
    trace = run_ensemble(config)
    return trace, time.perf_counter() - started


@pytest.fixture(scope="module")
def block_balanced_bs_trace():
    """bs-mip-apsa alone under block_balanced gains, on the same protocol.

    Every algorithm subset sees the same realization, so this curve pairs
    trial for trial with the apsa and mip-apsa curves of the shared fixture,
    which do not depend on the gain variant.
    """
    config = _tracking_benchmark_config(GainVariant.BLOCK_BALANCED, algorithms=("bs-mip-apsa",))
    return run_ensemble(config).traces["bs-mip-apsa"]


def test_criterion_6a_every_algorithm_drops_15_db(tracking_benchmark_ensemble):
    trace, elapsed = tracking_benchmark_ensemble
    pre_final = {name: t[19_999] for name, t in trace.traces.items()}
    ok = all(db <= -15.0 for db in pre_final.values()) and elapsed < 120.0
    detail = ", ".join(f"{k} {v:.1f} dB" for k, v in pre_final.items())
    _report("6a", ok, f"pre-switch drop (need <= -15): {detail} (ensemble {elapsed:.0f} s)")
    for name, db in pre_final.items():
        assert db <= -15.0, f"{name} only reached {db:.1f} dB before the switch"
    assert elapsed < 120.0


def test_criterion_6b_ordering_with_1_db_separation(tracking_benchmark_ensemble, block_balanced_bs_trace):
    trace, _ = tracking_benchmark_ensemble
    curves = {
        "bs-mip-apsa": block_balanced_bs_trace,
        "mip-apsa": trace.traces["mip-apsa"],
        "apsa": trace.traces["apsa"],
    }
    misses = []
    for label, phase in (("pre-switch", slice(0, 20_000)), ("post-switch", slice(20_000, 40_000))):
        bs, mip, apsa = (float(np.mean(t[phase])) for t in curves.values())
        gaps = {"bs-mip-apsa - mip-apsa": bs - mip, "mip-apsa - apsa": mip - apsa}
        ordered = all(gap <= -1.0 for gap in gaps.values())
        _report(
            "6b",
            ordered,
            f"{label} mean dB bs {bs:.2f}, mip {mip:.2f}, apsa {apsa:.2f}; gaps "
            + ", ".join(f"{pair} {gap:+.2f}" for pair, gap in gaps.items())
            + " dB (need <= -1)",
        )
        misses += [f"{label} {pair} = {gap:+.2f} dB" for pair, gap in gaps.items() if gap > -1.0]
    assert not misses, (
        "phase-mean ordering bs <= mip - 1 <= apsa - 2 dB does not hold, each gap "
        "must be <= -1 dB: " + "; ".join(misses)
    )


def test_criterion_6c_faster_recovery_after_switch(tracking_benchmark_ensemble):
    trace, _ = tracking_benchmark_ensemble

    def recross(t):
        idx = np.nonzero(t[20_000:] <= -10.0)[0]
        return int(idx[0]) if idx.size else None

    bs = recross(trace.traces["bs-mip-apsa"])
    mip = recross(trace.traces["mip-apsa"])
    ok = bs is not None and mip is not None and bs < mip
    _report("6c", ok, f"-10 dB re-cross after switch: bs {bs}, mip {mip} iterations")
    assert ok, (
        f"block-sparse re-crossed -10 dB at {bs}, per-tap at {mip}; faster tracking "
        "does not hold here; see README (Behavior notes)"
    )


def test_criterion_7_cli_byte_determinism(tmp_path):
    started = time.perf_counter()
    config = tmp_path / "quick.cfg"
    config.write_text(
        "filter_length = 32\nblock_length = 4\nclusters = 4:12\n"
        "switched_clusters = 18:12\nswitch_iteration = 200\n"
        "iterations = 400\ntrials = 2\nseed = 77\nmu = 0.02\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(config), "--out", str(out_a), "--quiet"]) == 0
    assert main(["--config", str(config), "--out", str(out_b), "--quiet"]) == 0
    same_csv = (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    same_manifest = (out_a / "manifest.txt").read_bytes() == (out_b / "manifest.txt").read_bytes()
    same_dat = (out_a / "trace.dat").read_bytes() == (out_b / "trace.dat").read_bytes()
    elapsed = time.perf_counter() - started
    ok = same_csv and same_manifest and same_dat and elapsed < 60.0
    _report(7, ok, f"repeat invocation byte-identical: csv={same_csv} manifest={same_manifest} plot={same_dat} ({elapsed:.1f} s)")
    assert same_csv and same_manifest and same_dat
    assert elapsed < 60.0
