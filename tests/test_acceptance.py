"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criterion 5 calibrates a single global SNR offset (shared by every scheme
and SNR) on a reduced pilot grid before the full-size comparison run, since
the published table's SNR convention is not recoverable from the text.
"""

import io
import os
from dataclasses import replace

import numpy as np
import pytest

from ulpsim import cli
from ulpsim.channel import draw_user_pool, select_users
from ulpsim.harness import SimulationConfig, run_point, run_sweep
from ulpsim.modem import draw_awgn, qpsk_demodulate, qpsk_modulate, transmit_receive
from ulpsim.precoder import SchemeMode, build, build_conventional, build_unified
from ulpsim.randomness import derived_stream

WORKERS = min(8, os.cpu_count() or 1)

# Published reference BERs per (scheme, snr_db).
TABLE_I = {
    "LZFP": {14.0: 1.5e-1, 20.0: 5.5e-2, 30.0: 6.1e-3},
    "LMMSEP": {14.0: 4.0e-2, 20.0: 8.0e-3, 30.0: 8.2e-4},
    "ULZFP": {14.0: 6.0e-3, 20.0: 2.0e-5, 30.0: 1.0e-5},
    "ULMMSEP": {14.0: 4.5e-3, 20.0: 2.0e-5, 30.0: 1.0e-5},
}
SNRS = (14.0, 20.0, 30.0)
LABELS = ("LZFP", "LMMSEP", "ULZFP", "ULMMSEP")


_CAPTURE = None


@pytest.fixture(autouse=True)
def _route_reports_past_capture(capfd):
    # Per-criterion PASS/FAIL lines must show up even for passing tests,
    # so print them with output capture suspended.
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(criterion, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {criterion}] {description}: {status}" + (f" ({detail})" if detail else "")
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(f"\n{line}")
    else:
        print(line)
    assert ok, f"criterion {criterion} failed: {description} {detail}"


def random_channel(seed):
    return select_users(draw_user_pool(derived_stream(seed), 20, 8), 8)


@pytest.fixture(scope="module")
def nominal_sweep():
    """Full default-size sweep with no SNR calibration."""
    return run_sweep(SimulationConfig(), workers=WORKERS)


def fit_snr_offset():
    """Pick the single global offset under which the most table cells match.

    The criterion asserts that one shared offset reconciles all cells, so
    the fit searches for the offset that satisfies the per-cell test for as
    many cells as possible (ties broken by log-BER least squares), using a
    reduced pilot run.
    """
    pilot = SimulationConfig(realizations=150)
    floor = 0.5 / pilot.bits_per_point

    def score(offset):
        matched, loss = 0, 0.0
        cfg = replace(pilot, snr_offset_db=offset)
        for label in LABELS:
            scheme = SchemeMode.from_label(label)
            for snr in SNRS:
                record = run_point(cfg, scheme, snr, workers=WORKERS)
                target = TABLE_I[label][snr]
                if (target / 2.0 <= max(record.ber, floor) <= target * 2.0
                        or abs(record.ber - target) <= 3.0 * record.standard_error):
                    matched += 1
                loss += np.log10(max(record.ber, floor) / target) ** 2
        return matched, -loss

    coarse = {off: score(off) for off in np.arange(-18.0, 0.5, 1.0)}
    best = max(coarse, key=lambda off: coarse[off])
    fine = {off: score(off) for off in np.arange(best - 1.0, best + 1.01, 0.5)}
    fine[best] = coarse[best]
    return float(max(fine, key=lambda off: fine[off]))


@pytest.fixture(scope="module")
def calibrated():
    offset = fit_snr_offset()
    table = run_sweep(replace(SimulationConfig(), snr_offset_db=offset), workers=WORKERS)
    return offset, table


def test_criterion_1_exact_reduction():
    # Unified u=0 vs the conventional scheme with the same m: with shared
    # per-realization streams the precoder matrices, decisions, and error
    # counts coincide, so the gap is exactly zero at every SNR.
    for seed in range(20):
        ch = random_channel(seed)
        for m in (0.0, 1.0):
            conv = build_conventional(ch, m=m, sigma2=0.2)
            uni = build_unified(ch, u=0.0, m=m, sigma2=0.2)
            assert np.array_equal(conv.F, uni.F)
    cfg = SimulationConfig(realizations=40, frames=2, symbols_per_frame=20)
    worst = 0
    for snr in SNRS:
        for m, label in ((0.0, "LZFP"), (1.0, "LMMSEP")):
            unified = run_point(cfg, SchemeMode(0.0, m), snr)
            conventional = run_point(cfg, SchemeMode.from_label(label), snr)
            worst = max(worst, abs(unified.bit_errors - conventional.bit_errors))
    report(1, "unified u=0 reduces to conventional with zero BER gap", worst == 0,
           f"max |error-count difference| = {worst}")


def test_criterion_2_zero_forcing_exactness():
    worst = 0.0
    for seed in range(100):
        ch = random_channel(seed + 2000)
        p = build_conventional(ch, m=0.0, sigma2=0.0)
        target = p.beta * np.eye(8)
        worst = max(worst, np.linalg.norm(ch.H @ p.F - target) / np.linalg.norm(target))
    ch = random_channel(1)
    p = build_conventional(ch, m=0.0, sigma2=0.0)
    rng = derived_stream(3)
    errors = 0
    n_sym = 10_000
    bits = rng.integers(0, 2, size=16 * n_sym)
    x = qpsk_modulate(bits).reshape(n_sym, 8).T
    est = transmit_receive(ch, p, x, np.zeros((8, n_sym)))
    errors = int(np.count_nonzero(qpsk_demodulate(est.T.reshape(-1)) != bits))
    ok = worst <= 1e-9 and errors == 0
    report(2, "ZF inverts the channel exactly and is noiseless-error-free", ok,
           f"max rel residual {worst:.2e}, errors {errors}/{16 * n_sym}")


def test_criterion_3_unified_identity():
    worst_agreement = 0.0
    for seed in range(100):
        ch = random_channel(seed + 3000)
        u, m, sigma2 = 0.8, 1.0, 0.25
        p = build_unified(ch, u=u, m=m, sigma2=sigma2)
        hu = np.vstack([ch.H, u * np.eye(8)])
        row_form = hu.conj().T @ np.linalg.inv(hu @ hu.conj().T + m * sigma2 * np.eye(16))
        worst_agreement = max(worst_agreement, float(np.max(np.abs(p.F / p.beta - row_form))))
    worst_mp = 0.0
    for seed in range(100):
        ch = random_channel(seed + 4000)
        p = build_unified(ch, u=1.0, m=0.0, sigma2=0.0)
        hu = np.vstack([ch.H, np.eye(8)])
        pinv = p.F / p.beta
        worst_mp = max(
            worst_mp,
            float(np.max(np.abs(hu @ pinv @ hu - hu))),
            float(np.max(np.abs(pinv @ hu @ pinv - pinv))),
            float(np.max(np.abs((hu @ pinv).conj().T - hu @ pinv))),
            float(np.max(np.abs((pinv @ hu).conj().T - pinv @ hu))),
        )
    ok = worst_agreement <= 1e-10 and worst_mp <= 1e-10
    report(3, "row/column precoder forms agree; pseudo-inverse at m=0", ok,
           f"form agreement {worst_agreement:.2e}, Moore-Penrose residual {worst_mp:.2e}")


def test_criterion_4_trace_normalization():
    rng = np.random.default_rng(44)
    worst = 0.0
    for i in range(1000):
        ch = random_channel(5000 + i)
        u = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        m = float(rng.choice([0.0, 1.0, 8.0]))
        sigma2 = float(rng.uniform(0.001, 1.0))
        if u == 0.0 and m == 0.0 and rng.random() < 0.5:
            m = 1.0
        p = build(ch, SchemeMode(u, m), sigma2)
        power = np.trace(p.F @ p.F.conj().T).real
        worst = max(worst, abs(power - 8.0) / 8.0)
    report(4, "every precoder has trace(F F^H) = n_tx", worst <= 1e-9,
           f"max relative deviation {worst:.2e} over 1000 draws")


def test_criterion_5_table_reproduction(calibrated):
    offset, table = calibrated
    note = f"[criterion 5] fitted global snr offset: {offset:+.1f} dB"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(f"\n{note}")
    else:
        print(note)
    failures = []
    for label in LABELS:
        for snr in SNRS:
            record = table.lookup(label, snr)
            target = TABLE_I[label][snr]
            within_factor = target / 2.0 <= max(record.ber, 1e-300) <= target * 2.0
            within_se = abs(record.ber - target) <= 3.0 * record.standard_error
            status = "ok" if (within_factor or within_se) else "MISMATCH"
            print(f"    {label:8s} {snr:4.0f} dB: measured {record.ber:.3e} "
                  f"target {target:.1e} [{status}]")
            if not (within_factor or within_se):
                failures.append(f"{label}@{snr:g}dB {record.ber:.2e} vs {target:.1e}")
    report(5, "all 12 published BER cells match after one global SNR offset",
           not failures, "; ".join(failures))


def test_criterion_6_qualitative_orderings(nominal_sweep):
    table = nominal_sweep
    problems = []
    for snr in SNRS:
        lzf = table.lookup("LZFP", snr)
        lmmse = table.lookup("LMMSEP", snr)
        ulzf = table.lookup("ULZFP", snr)
        ulmmse = table.lookup("ULMMSEP", snr)
        print(f"    {snr:4.0f} dB: LZFP {lzf.ber:.3e}  LMMSEP {lmmse.ber:.3e}  "
              f"ULZFP {ulzf.ber:.3e}  ULMMSEP {ulmmse.ber:.3e}")
        if not lzf.ber > lmmse.ber:
            problems.append(f"LZFP <= LMMSEP at {snr:g} dB")
        if not lmmse.ber > ulzf.ber:
            problems.append(f"LMMSEP <= ULZFP at {snr:g} dB")
        se = 3.0 * np.hypot(ulzf.standard_error, ulmmse.standard_error)
        if not ulzf.ber >= ulmmse.ber - se:
            problems.append(f"ULZFP significantly below ULMMSEP at {snr:g} dB")
        gap = abs(ulzf.ber - ulmmse.ber)
        if snr == min(SNRS) and gap > 2e-3:
            problems.append(f"ULZF/ULMMSE gap {gap:.1e} > 2e-3 at {snr:g} dB")
        if snr != min(SNRS) and gap > se:
            problems.append(f"ULZF/ULMMSE gap {gap:.1e} distinguishable from 0 at {snr:g} dB")
    conv_gaps = [table.lookup("LZFP", s).ber - table.lookup("LMMSEP", s).ber for s in SNRS]
    if not all(a >= b for a, b in zip(conv_gaps, conv_gaps[1:])):
        problems.append(f"LZFP-LMMSEP gap not decreasing: {conv_gaps}")
    uni_gaps = [abs(table.lookup("ULZFP", s).ber - table.lookup("ULMMSEP", s).ber) for s in SNRS]
    if not all(a >= b for a, b in zip(uni_gaps, uni_gaps[1:])):
        problems.append(f"ULZF/ULMMSE gap not decreasing: {uni_gaps}")
    report(6, "published qualitative orderings hold without calibration",
           not problems, "; ".join(problems))


def test_criterion_7_parallel_determinism():
    cfg = SimulationConfig(realizations=48, frames=2, symbols_per_frame=20)
    blobs = []
    for workers in (1, 4, 8):
        table = run_sweep(cfg, workers=workers)
        buf = io.StringIO()
        import csv as _csv

        writer = _csv.writer(buf)
        for r in table.records:
            writer.writerow([r.snr_db, r.scheme_label, r.bit_errors, r.bits_total,
                             cli.sci(r.ber)])
        blobs.append(buf.getvalue())
    ok = blobs[0] == blobs[1] == blobs[2]
    report(7, "identical results for worker counts 1, 4, 8", ok)


def test_criterion_8_statistical_sanity():
    pool = draw_user_pool(derived_stream(88), 1250, 80)
    z = pool.rows.ravel()
    n = z.size
    fading_dev = abs(np.mean(np.abs(z) ** 2) - 1.0)
    fading_ok = fading_dev < 3.0 / np.sqrt(n)
    n0 = 0.42
    noise = draw_awgn(derived_stream(89), 100_000, n0)
    noise_dev = abs(np.mean(np.abs(noise) ** 2) - n0)
    noise_ok = noise_dev < 3.0 * n0 / np.sqrt(noise.size)
    import itertools

    round_trip = all(
        list(qpsk_demodulate(qpsk_modulate([b0, b1]))) == [b0, b1]
        for b0, b1 in itertools.product((0, 1), repeat=2)
    )
    ok = fading_ok and noise_ok and round_trip
    report(8, "fading/AWGN variances nominal; QPSK round trip exact", ok,
           f"fading dev {fading_dev:.1e}, noise dev {noise_dev:.1e}")
