"""End-to-end acceptance suite.

Each test checks one advertised property of the simulator at desk scale
(bundled 14-node NSFNet, 10,000 requests per replication, 3 seeded
replications, 200 Erlang) and prints a PASS line with the measured
numbers; the First Fit decay signature runs at 100,000 requests, the
scale at which its tolerance band is defined.  Replication results are
cached in-module and shared between criteria, so the whole suite costs
about a hundred replications (several minutes).

Seeds are pinned: every number asserted here is bit-reproducible.
"""

import numpy as np
import pytest

from eonjam.control_plane import ControlMode, verify_state_invariants
from eonjam.jammer import JammerConfig, ground_truth_channels
from eonjam.metrics import (
    blocking_probability,
    results_equal,
    slot_histogram,
    utilization_ranking,
)
from eonjam.phy import G0_ASE, TX_POWER_W, channel_for_block, db_to_linear, snr
from eonjam.sim import TrafficModel, _run_jobs, run_replication
from eonjam.spectrum import SlotBlock
from eonjam.topology import load_topology, nsfnet

import reference_model as ref

BASE_SEED = 7
REPLICATIONS = 3
WORKERS = 2
DESK = TrafficModel(requests_per_replication=10_000, replications=REPLICATIONS)
FULL = TrafficModel(requests_per_replication=100_000, replications=REPLICATIONS)

JAMMED_RANGES = (SlotBlock(50, 10), SlotBlock(140, 10), SlotBlock(230, 10))
RANGE_INDICES = np.r_[50:60, 140:150, 230:240]

TOPOLOGY = nsfnet()

_cache: dict = {}


def _point(mode: ControlMode, target: str | None, eps: float | None, traffic=DESK):
    """All replications of one scenario point, cached module-wide."""
    key = (mode, target, eps, traffic.requests_per_replication)
    if key not in _cache:
        jobs = []
        for r in range(traffic.replications):
            jam = (
                None
                if mode is ControlMode.NO_JAMMING
                else JammerConfig(target=target, jammed_ranges=JAMMED_RANGES, epsilon_db=eps)
            )
            jobs.append((BASE_SEED + r, TOPOLOGY, traffic, (mode,), jam, 0.1))
        _cache[key] = tuple(result for (result,) in _run_jobs(jobs, WORKERS))
    return _cache[key]


def _mean_blocking(results) -> float:
    return float(np.mean([blocking_probability(r) for r in results]))


def _ranking():
    if "ranking" not in _cache:
        _cache["ranking"] = utilization_ranking(_point(ControlMode.NO_JAMMING, None, None))
    return _cache["ranking"]


def _mu_link() -> str:
    return _ranking()[0][0]


def _lu_link() -> str:
    return _ranking()[-1][0]


FINE_SWEEP = [round(0.25 * i, 2) for i in range(15)]  # 0.00 .. 3.50


def _mu_fine_curve():
    if "mu_curve" not in _cache:
        _cache["mu_curve"] = [
            _mean_blocking(_point(ControlMode.UNAWARE, _mu_link(), eps)) for eps in FINE_SWEEP
        ]
    return _cache["mu_curve"]


def _report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


# ---------------------------------------------------------------------------
# Criterion 1: the SNR engine matches an independent reimplementation.
# ---------------------------------------------------------------------------

def _random_configuration(rng):
    """Random non-overlapping layout: <=4 channels, <=3 links, <=3 spans."""
    span_counts = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4)))]
    nodes = [f"n{i}" for i in range(len(span_counts) + 1)]
    lines = ["nodes: " + " ".join(nodes)]
    for i, spans in enumerate(span_counts):
        lines.append(f"link: {nodes[i]} {nodes[i + 1]} {spans * 100}")
    topo = load_topology("\n".join(lines))
    route = topo.shortest_path(nodes[0], nodes[-1])

    blocks = []
    cursor = 0
    for _ in range(int(rng.integers(1, 5))):
        cursor += int(rng.integers(0, 6))
        width = int(rng.integers(1, 9))
        if cursor + width > 300:
            break
        blocks.append(SlotBlock(cursor, width))
        cursor += width + 2
    target_index = int(rng.integers(len(blocks)))
    target = channel_for_block(blocks[target_index])

    eps_db = float(rng.choice([0.0, 1.0, 3.0, 5.0]))
    eps = TX_POWER_W * (db_to_linear(eps_db) - 1.0)
    jam_start = 250 + int(rng.integers(0, 40))
    jammer = channel_for_block(
        SlotBlock(jam_start, 10), power_w=TX_POWER_W + eps, is_jammer=True
    )

    per_link = []
    for _ in route.links:
        channels = [
            channel_for_block(b) for i, b in enumerate(blocks)
            if i != target_index and rng.random() < 0.8
        ]
        if rng.random() < 0.7:
            channels.append(jammer)
        per_link.append(channels)
    return target, route, per_link, eps


def test_c1_snr_oracle_equivalence():
    rng = np.random.Generator(np.random.Philox(20240))
    checked = 0
    worst = 0.0
    for _ in range(1000):
        target, route, per_link, eps = _random_configuration(rng)
        value = snr(target, route, per_link, eps)
        as_tuple = lambda c: (c.center_frequency_hz, c.bandwidth_hz, c.psd_w_per_hz, c.is_jammer)
        expected = ref.ref_snr(
            as_tuple(target),
            [(link.span_count, [as_tuple(c) for c in channels])
             for link, channels in zip(route.links, per_link)],
            eps,
        )
        rel = abs(value - expected) / expected
        worst = max(worst, rel)
        assert rel < 1e-9, f"SNR mismatch: {value} vs {expected}"
        checked += 1
    assert checked == 1000

    g0 = G0_ASE
    assert abs(g0 - ref.ref_g0_ase()) / ref.ref_g0_ase() < 1e-6
    assert g0 == pytest.approx(5.0402e-17, rel=1e-4)
    _report("C1", f"1000 randomized SNR configs within 1e-9 (worst {worst:.2e}); "
                  f"per-span ASE PSD {g0:.4e} W/Hz")


# ---------------------------------------------------------------------------
# Criterion 2: an inert attacker changes nothing, bit for bit.
# ---------------------------------------------------------------------------

def test_c2_zero_epsilon_equivalence():
    baseline = _point(ControlMode.NO_JAMMING, None, None)
    unaware = _point(ControlMode.UNAWARE, _mu_link(), 0.0)
    aware = _point(ControlMode.AWARE, _mu_link(), 0.0)
    for base, other in zip(baseline, unaware):
        assert results_equal(base, other), "unaware run at 0 dB diverged from baseline"
    for base, other in zip(baseline, aware):
        assert results_equal(base, other), "aware run at 0 dB diverged from baseline"
    _report("C2", f"no-jamming vs 0 dB attack identical over {REPLICATIONS} seeds "
                  f"(blocking {_mean_blocking(baseline):.4f})")


# ---------------------------------------------------------------------------
# Criterion 3: the unaware plane's blocking peaks between 2 and 3 dB.
# ---------------------------------------------------------------------------

def test_c3_mu_blocking_peak_location():
    curve = _mu_fine_curve()
    peak = int(np.argmax(curve))
    eps_star = FINE_SWEEP[peak]
    assert 0 < peak < len(curve) - 1, f"peak sits on a sweep endpoint ({eps_star} dB)"
    assert curve[peak] > curve[peak - 1] and curve[peak] > curve[peak + 1], (
        "dominant point is not a local maximum"
    )
    assert curve[peak] > curve[0], "no rise over the unjammed-power level"
    assert 2.0 <= eps_star <= 3.0, f"blocking peak at {eps_star} dB outside [2.0, 3.0]"
    _cache["eps_star"] = eps_star
    _report("C3", f"first blocking peak at {eps_star} dB "
                  f"(blocking {curve[peak]:.4f} vs {curve[0]:.4f} at 0 dB)")


def _eps_star() -> float:
    if "eps_star" not in _cache:
        curve = _mu_fine_curve()
        _cache["eps_star"] = FINE_SWEEP[int(np.argmax(curve))]
    return _cache["eps_star"]


# ---------------------------------------------------------------------------
# Criterion 4: the aware plane wins at the peak, pays a little at low power.
# ---------------------------------------------------------------------------

def test_c4_aware_mode_ordering():
    eps_star = _eps_star()
    mu_j = _mean_blocking(_point(ControlMode.UNAWARE, _mu_link(), eps_star))
    mu_ja = _mean_blocking(_point(ControlMode.AWARE, _mu_link(), eps_star))
    assert mu_ja < mu_j, f"aware {mu_ja:.4f} not below unaware {mu_j:.4f} at {eps_star} dB"

    baseline = _mean_blocking(_point(ControlMode.NO_JAMMING, None, None))
    mu_ja_low = _mean_blocking(_point(ControlMode.AWARE, _mu_link(), 0.5))
    assert mu_ja_low >= baseline, (
        f"aware at 0.5 dB ({mu_ja_low:.4f}) below the no-jamming baseline ({baseline:.4f})"
    )
    _report("C4", f"at {eps_star} dB aware {mu_ja:.4f} < unaware {mu_j:.4f}; "
                  f"at 0.5 dB aware {mu_ja_low:.4f} >= baseline {baseline:.4f}")


# ---------------------------------------------------------------------------
# Criterion 5: attacking the least used link hurts less than attacking the
# most used one.
#
# The paper attacks the least used (LU) and the most used (MU) link in
# order to compare them, and promises no LU result beyond that ordering.
# The LU attack is not free.  The LU link, 1-8, has a mean carried
# utilization of only 0.0045, but it still carries 70 to 90 circuits per
# replication, and five of its six routes continue over 8-9, the MU link.
# Jamming adds strictly positive noise to those circuits, and the
# neighbour check then refuses any later candidate that would push such a
# thinned circuit below its threshold.  About 90% of the extra blocking
# therefore falls on requests whose route never touches 1-8 (seeds 7/8/9
# at 2 dB: +10/+8/+3 extra blocks on the 1-8 pairs, +54/+64/+101 on all
# others).  With the neighbour check made blind to its neighbours'
# jamming noise, that off-link excess drops to noise (at 4 dB, from
# +58/+40/+54 to -8/+39/-49).  The net effect is a systematic +0.1 to
# +1.0 percentage point over the sweep, 0.05 to 0.44 of the MU attack's
# excess (+1.05 to +2.41 points) at the same power.
#
# A two-standard-error equivalence bound around zero is not used: apart
# from the real effect above, three paired differences have 2 degrees of
# freedom, P(|t_2| > 2) is about 0.18 per point, and over ten points such
# a bound fails roughly 87% of the time even for an attack with no true
# effect.  Any changed admission reshuffles First Fit for the rest of the
# run, so the paired noise (about +-0.4 pp) exceeds the baseline's
# seed-to-seed spread.
#
# The check is the comparison the paper draws: at 0 dB the LU attack
# changes nothing, and at every higher power its mean paired excess over
# the no-jamming baseline is strictly below the MU attack's.  It fails if
# the selector picks a busy link or if jamming leaks network-wide.  Aware
# and unaware blocking agree to every digit under the LU attack (the aware
# plane never detects it), so only the unaware plane is swept.
# ---------------------------------------------------------------------------

COARSE_SWEEP = [round(0.5 * i, 1) for i in range(11)]  # 0.0 .. 5.0


def test_c5_lu_insensitivity():
    baseline = np.array(
        [blocking_probability(r) for r in _point(ControlMode.NO_JAMMING, None, None)]
    )

    def excess(link: str, eps: float) -> np.ndarray:
        return np.array(
            [blocking_probability(r) for r in _point(ControlMode.UNAWARE, link, eps)]
        ) - baseline

    failures = []
    worst_ratio = 0.0
    for eps in COARSE_SWEEP:
        lu = excess(_lu_link(), eps)
        if eps == 0.0:
            if np.any(lu != 0.0):
                failures.append(f"{eps} dB: LU excess {float(np.mean(lu)):+.4f}, expected exactly 0")
            continue
        lu_mean = float(np.mean(lu))
        mu_mean = float(np.mean(excess(_mu_link(), eps)))
        if not lu_mean < mu_mean:
            failures.append(f"{eps} dB: LU excess {lu_mean:+.4f} not below MU excess {mu_mean:+.4f}")
        elif mu_mean > 0.0:
            worst_ratio = max(worst_ratio, lu_mean / mu_mean)
    if failures:
        pytest.fail("least-used-link attack not milder than most-used-link attack: "
                    + "; ".join(failures))
    _report("C5", f"LU ({_lu_link()}) excess blocking 0 at 0 dB and below the MU "
                  f"({_mu_link()}) excess at every power up to {COARSE_SWEEP[-1]} dB "
                  f"(worst LU/MU ratio {worst_ratio:.2f})")


# ---------------------------------------------------------------------------
# Criterion 6: slot-utilization signatures.
# ---------------------------------------------------------------------------

def test_c6a_first_fit_decay_signature():
    results = _point(ControlMode.NO_JAMMING, None, None, traffic=FULL)
    hist = slot_histogram(results)
    running_min = np.minimum.accumulate(hist)
    excess = float(np.max(hist - running_min))
    assert excess <= 0.02, f"histogram rises {excess:.4f} above its running minimum"
    _report("C6a", f"no-jamming histogram non-increasing within 0.02 "
                   f"(max excess {excess:.4f}, head {hist[0]:.3f} -> tail {hist[-1]:.4f})")


def test_c6b_aware_mode_keeps_jammed_slots_free():
    mu = _mu_link()
    for eps in (0.5, _eps_star(), 5.0):
        for result in _point(ControlMode.AWARE, mu, eps):
            carried = result.slot_used_by_link[mu][RANGE_INDICES]
            assert np.all(carried == 0.0), (
                f"aware mode carried traffic inside a jammed range at {eps} dB"
            )
    _report("C6b", "aware mode never carried traffic in jammed slot ranges "
                   f"on {mu} at 0.5, {_eps_star()} and 5.0 dB")


def test_c6c_inband_depression_at_high_power():
    mu = _mu_link()
    hist_0 = slot_histogram(_point(ControlMode.UNAWARE, mu, 0.0))
    hist_5 = slot_histogram(_point(ControlMode.UNAWARE, mu, 5.0))
    level_0 = float(np.mean(hist_0[RANGE_INDICES]))
    level_5 = float(np.mean(hist_5[RANGE_INDICES]))
    assert level_5 < level_0, (
        f"no depression inside jammed ranges: {level_5:.4f} vs {level_0:.4f}"
    )
    attacked_0 = float(np.mean(
        np.mean([r.slot_used_by_link[mu] for r in _point(ControlMode.UNAWARE, mu, 0.0)], axis=0)[RANGE_INDICES]
    ))
    attacked_5 = float(np.mean(
        np.mean([r.slot_used_by_link[mu] for r in _point(ControlMode.UNAWARE, mu, 5.0)], axis=0)[RANGE_INDICES]
    ))
    assert attacked_5 < attacked_0
    _report("C6c", f"jammed-range utilization at 5 dB {level_5:.4f} < {level_0:.4f} at 0 dB "
                   f"(attacked link: {attacked_5:.4f} < {attacked_0:.4f})")


# ---------------------------------------------------------------------------
# Criterion 7: structural invariants.
# ---------------------------------------------------------------------------

def test_c7_structural_invariants():
    # Audited replications: fresh-recompute SNR, slot conservation,
    # threshold satisfaction and forbidden-slot discipline are asserted
    # inside verify_state_invariants every few events.
    traffic = TrafficModel(requests_per_replication=2_000, replications=1)
    for mode, eps in ((ControlMode.AWARE, 2.25), (ControlMode.UNAWARE, 5.0)):
        jam = JammerConfig(target=_mu_link(), jammed_ranges=JAMMED_RANGES, epsilon_db=eps)
        gt = ground_truth_channels(jam, target_link_id=_mu_link())

        def audit(state, kind, now, _mode=mode, _gt=gt):
            verify_state_invariants(state, _mode, _gt)

        run_replication(
            BASE_SEED, TOPOLOGY, traffic, mode, jam,
            audit_hook=audit, audit_every=59,
        )

    # Determinism: identical seed and configuration, bit-identical result.
    jam = JammerConfig(target=_mu_link(), jammed_ranges=JAMMED_RANGES, epsilon_db=2.25)
    a = run_replication(BASE_SEED, TOPOLOGY, traffic, ControlMode.AWARE, jam)
    b = run_replication(BASE_SEED, TOPOLOGY, traffic, ControlMode.AWARE, jam)
    assert results_equal(a, b)
    _report("C7", "audited replications clean (admission soundness, conservation, "
                  "aware-mode safety); rerun bit-identical")
