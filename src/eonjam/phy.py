"""Physical-layer SNR model with embedded jamming noise.

The quality of a channel is judged by

    SNR = G / (G_ase + G_nli + G_jam)

where G is the channel's launch power spectral density and the denominator
accumulates amplifier noise (ASE), Kerr nonlinear interference from
co-propagating channels (Gaussian-noise approximation), and the extra
nonlinear interference caused by a high-power jamming signal.

The model has one physical layer.  Its fibre, amplifier and transmitter
constants are module constants, in their customary units (dB/km,
ps^2/km, 1/(W km), dBm); everything is evaluated in SI units (W, Hz, m,
s), and the SI values the noise terms read are computed once, at
import: the launch power :data:`TX_POWER_W`, the per-span ASE PSD
:data:`G0_ASE` and the two coefficients

    PHI = 3 * gamma^2 / (2 * pi * alpha * |beta2|)
    RHO = pi^2 * |beta2| / (2 * alpha)

used by the nonlinear terms.  Only frequency differences matter for the
interference integrals, so frequencies are counted from the lower edge
of slot 0.

The noise terms are written here only (:func:`ase_psd`, :func:`sci_psd`,
the cross-channel kernels, :func:`jamming_psd`); :func:`snr` and the
admission engine in ``control_plane`` both compose them.

The cross-channel (XCI) term has two kernels, one per direction of a
neighbour pair.  :func:`xci_onto` sums what many channels put on one
target (a candidate's own noise); :func:`xci_from` spreads what one
source puts on many channels (the noise a circuit adds to its
neighbours).  Each walks a whole route in one call: it takes
``(span_count, channels)`` pairs, one per hop, where ``channels`` maps
ids to spectral records, which is the shape ``control_plane`` keeps of
a route's live hops.  :func:`snr`, :func:`xci_psd` and
:func:`jamming_psd` pass a single hop.  A spectral record is a ``(2 * start + width, width, psd, psd**2)``
tuple that each :class:`Channel` computes once as
:attr:`Channel.record`: the centre and the half-bandwidth in half-slots,
then the PSD and its square.  The pair logarithm ``ln((f + B/2) / (f -
B/2))`` depends only on the centre spacing ``d`` and the half-width
``w`` in half-slots, as ``ln((d + w) / (d - w))``; it is read from a
table per width, built with the first channel of that width
(:data:`_LOG_RATIOS`) and indexed by the signed difference of the
centres, so the per-pair loops make no attribute lookup, division,
power, ``abs`` or logarithm.  The entries where the spectra overlap are
None, so an overlap raises in the product and needs no test per pair.
With slots a whole number of hertz wide, as :data:`SLOT_WIDTH_HZ` is, the
centres and half-widths in Hz are exact floats far below 2**53, so the
ratio in Hz rounds to the same float as the ratio in half-slots.  Each kernel computes the factor fixed across
a hop once, as the same left-to-right prefix of the product that
:func:`xci_psd` evaluates, so every term keeps its bits.  :func:`xci_psd`
is the one-pair case of :func:`xci_onto`.

:func:`qot_verdict` judges a linear SNR against the format threshold in
dB.  Outside a band of relative half-width :data:`QOT_BAND` around the
linear threshold the comparison with the band edge decides without a
logarithm; the band is about 4e-9 dB wide on either side, millions of
times the rounding error of the dB value, so no verdict changes.
"""

from __future__ import annotations

import math

from ._value import Value
from .spectrum import SLOT_COUNT, SlotBlock
from .topology import SPAN_LENGTH_KM

__all__ = [
    "PhyModelError",
    "TX_POWER_DBM",
    "SLOT_WIDTH_HZ",
    "ATTENUATION_DB_PER_KM",
    "GAMMA_NL_PER_W_KM",
    "BETA2_ABS_PS2_PER_KM",
    "LIGHT_FREQUENCY_HZ",
    "NOISE_FIGURE_DB",
    "PLANCK_JS",
    "TX_POWER_W",
    "PHI",
    "RHO",
    "G0_ASE",
    "Channel",
    "Modulation",
    "MODULATIONS",
    "db_to_linear",
    "linear_to_db",
    "slot_center_frequency",
    "channel_for_block",
    "ase_psd",
    "sci_psd",
    "xci_psd",
    "xci_onto",
    "xci_from",
    "jamming_psd",
    "inband_jamming_psd",
    "snr",
    "QOT_BAND",
    "qot_verdict",
]


class PhyModelError(ValueError):
    """Raised when inputs violate the model's validity domain.

    Overlapping co-channel spectra make the interference logarithm
    undefined; hitting this from the simulator signals an RSA
    bookkeeping bug, not a physical outcome.
    """


def db_to_linear(x_db: float) -> float:
    """Convert a decibel ratio to a linear ratio."""
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    """Convert a positive linear ratio to decibels."""
    if x <= 0.0:
        raise ValueError(f"cannot express non-positive ratio {x!r} in dB")
    return 10.0 * math.log10(x)


#: Launch power of one channel (the whole slot block), so wider channels
#: spread the same power more thinly.
TX_POWER_DBM = 0.0
SLOT_WIDTH_HZ = 12.5e9
ATTENUATION_DB_PER_KM = 0.2
GAMMA_NL_PER_W_KM = 1.22
BETA2_ABS_PS2_PER_KM = 16.0
LIGHT_FREQUENCY_HZ = 1.93e14
NOISE_FIGURE_DB = 6.0
PLANCK_JS = 6.62607015e-34

TX_POWER_W = 1e-3 * db_to_linear(TX_POWER_DBM)
#: Power attenuation in nepers per metre.
_ALPHA_PER_M = ATTENUATION_DB_PER_KM * math.log(10.0) / 10.0 / 1e3
_BETA2_S2_PER_M = BETA2_ABS_PS2_PER_KM * 1e-24 / 1e3
_GAMMA_PER_W_M = GAMMA_NL_PER_W_KM / 1e3
PHI = 3.0 * _GAMMA_PER_W_M**2 / (2.0 * math.pi * _ALPHA_PER_M * _BETA2_S2_PER_M)
RHO = math.pi**2 * _BETA2_S2_PER_M / (2.0 * _ALPHA_PER_M)
#: ASE noise PSD of one span of ``SPAN_LENGTH_KM``, (e^{alpha L} - 1) F h nu.
G0_ASE = (
    (math.exp(_ALPHA_PER_M * 1e3 * SPAN_LENGTH_KM) - 1.0)
    * db_to_linear(NOISE_FIGURE_DB)
    * PLANCK_JS
    * LIGHT_FREQUENCY_HZ
)


#: ``_LOG_RATIOS[w][d]`` is ``ln((|d| + w) / (|d| - w))``, the XCI logarithm
#: of a channel of half-width ``w`` at signed centre spacing ``d``, both in
#: half-slots, for ``-S < d < S``; it is None for ``|d| <= w``, where the
#: spectra overlap.  A table lists the spacings ``0 .. S - 1`` and then
#: ``S .. 1``, so that a negative index reads a negative spacing, and all
#: tables have the one length ``2 * S``.  Every :class:`Channel` sees to it
#: when it is built that its width has a table and that ``S`` is past its
#: centre, so the kernels find the entry of any pair of channels at the
#: difference of their centres.
_LOG_RATIOS: dict[int, list[float | None]] = {}


def _cover(center: int, width: int) -> None:
    """Give ``width`` a table and make every table reach past ``center``."""
    tables = _LOG_RATIOS
    reach = max(center + 1, len(next(iter(tables.values()), ())) // 2)
    tables.setdefault(width, [])
    for w, table in tables.items():
        if len(table) != 2 * reach:
            ratios = [math.log((d + w) / (d - w)) if d > w else None for d in range(reach + 1)]
            table[:] = ratios[:reach] + ratios[:0:-1]


class Channel(Value):
    """A spectral occupant: slot block, centre frequency, bandwidth and launch PSD.

    Built by :func:`channel_for_block`, which derives the frequencies
    from the block.  ``record`` is ``(2 * block.start + block.width,
    block.width, psd_w_per_hz, psd_w_per_hz**2)``: the centre and the
    half-bandwidth in half-slots, then the PSD and its square;
    everything the XCI kernels read of a channel.  It is not compared.
    """

    _fields = ("block", "center_frequency_hz", "bandwidth_hz", "psd_w_per_hz", "is_jammer")

    def __init__(
        self,
        block: SlotBlock,
        center_frequency_hz: float,
        bandwidth_hz: float,
        psd_w_per_hz: float,
        is_jammer: bool = False,
    ) -> None:
        width = block.width
        center = 2 * block.start + width
        self._store(
            block=block,
            center_frequency_hz=center_frequency_hz,
            bandwidth_hz=bandwidth_hz,
            psd_w_per_hz=psd_w_per_hz,
            is_jammer=is_jammer,
            record=(center, width, psd_w_per_hz, psd_w_per_hz**2),
        )
        table = _LOG_RATIOS.get(width)
        if table is None or 2 * center >= len(table):
            _cover(center, width)

    def overlap_hz(self, other: "Channel") -> float:
        """Width of the spectral intersection with ``other`` (0 if disjoint)."""
        lo = max(
            self.center_frequency_hz - self.bandwidth_hz / 2.0,
            other.center_frequency_hz - other.bandwidth_hz / 2.0,
        )
        hi = min(
            self.center_frequency_hz + self.bandwidth_hz / 2.0,
            other.center_frequency_hz + other.bandwidth_hz / 2.0,
        )
        return max(0.0, hi - lo)


#: Relative half-width of the band around a linear SNR threshold inside
#: which :func:`qot_verdict` compares in dB.
QOT_BAND = 1e-9


class Modulation(Value):
    """A modulation format and its SNR threshold.

    ``qot_band`` holds the linear SNRs ``(L * (1 - QOT_BAND), L * (1 +
    QOT_BAND))`` around ``L = db_to_linear(snr_threshold_db)``, computed
    once per format for :func:`qot_verdict`.  It is not compared.
    """

    _fields = ("name", "bits_per_symbol", "snr_threshold_db")

    def __init__(self, name: str, bits_per_symbol: int, snr_threshold_db: float) -> None:
        linear = db_to_linear(snr_threshold_db)
        self._store(
            name=name,
            bits_per_symbol=bits_per_symbol,
            snr_threshold_db=snr_threshold_db,
            qot_band=(linear * (1.0 - QOT_BAND), linear * (1.0 + QOT_BAND)),
        )


#: Supported formats, ordered by spectral efficiency.
MODULATIONS: tuple[Modulation, ...] = (
    Modulation("BPSK", 1, 9.0),
    Modulation("QPSK", 2, 9.0),
    Modulation("8QAM", 3, 12.0),
    Modulation("16QAM", 4, 15.0),
    Modulation("32QAM", 5, 18.0),
    Modulation("64QAM", 6, 21.0),
)


def slot_center_frequency(block: SlotBlock) -> float:
    """Centre frequency of a slot block above the lower edge of slot 0."""
    return (block.start + block.width / 2.0) * SLOT_WIDTH_HZ


def channel_for_block(
    block: SlotBlock,
    power_w: float | None = None,
    is_jammer: bool = False,
) -> Channel:
    """Build the :class:`Channel` occupying ``block`` at the given power.

    Defaults to the transmitter launch power; the PSD is power divided by
    the block bandwidth.  Raises :class:`PhyModelError` for a block that
    does not lie inside the ``SLOT_COUNT``-slot grid: a channel grows the
    log-ratio tables out to its centre, so a block far past the grid
    would cost memory in proportion to its position.
    """
    if block.end > SLOT_COUNT:
        raise PhyModelError(f"block {block} does not lie inside the {SLOT_COUNT}-slot grid")
    bandwidth = block.width * SLOT_WIDTH_HZ
    if power_w is None:
        power_w = TX_POWER_W
    return Channel(
        block=block,
        center_frequency_hz=slot_center_frequency(block),
        bandwidth_hz=bandwidth,
        psd_w_per_hz=power_w / bandwidth,
        is_jammer=is_jammer,
    )


def ase_psd(route) -> float:
    """ASE noise PSD accumulated over every span of ``route``."""
    if not route.links:
        raise ValueError("route has no links")
    return route.total_spans * G0_ASE


def _raise_overlap(center: int, hops, half: int | None) -> None:
    """Raise :class:`PhyModelError` for the first channel of ``hops`` that overlaps.

    A channel overlaps when its centre lies within ``half`` half-slots
    of ``center``, or within its own half-width when ``half`` is None.
    Returns when none does.
    """
    for _, channels in hops:
        for other_center, other_half, _, _ in channels.values():
            spacing = abs(other_center - center)
            limit = other_half if half is None else half
            if spacing <= limit:
                raise PhyModelError(
                    "co-channel spectra overlap the interference integral "
                    f"(spacing {spacing} half-slots, half-bandwidth {limit} half-slots)"
                )


def sci_psd(target: Channel, span_count: int) -> float:
    """Self-channel NLI PSD of ``target`` accumulated over ``span_count`` spans."""
    return (
        span_count
        * PHI
        * target.psd_w_per_hz**3
        * math.asinh(RHO * target.bandwidth_hz**2)
    )


def xci_psd(target: Channel, other: Channel, span_count: int) -> float:
    """Cross-channel NLI PSD that ``other`` adds to ``target`` on one link."""
    return xci_onto(target.record, ((span_count, {0: other.record}),), 0.0)


def xci_onto(target, hops, total: float) -> float:
    """``total`` plus the XCI the channels on each hop add to ``target``.

    ``target`` is a :attr:`Channel.record` and ``hops`` is a sequence of
    ``(span_count, channels)`` pairs, one per link, where ``channels``
    maps ids to records.  The terms are added hop by hop, in the order
    of each mapping.  Each is ``span_count * phi * G_target * G_other^2
    * ln((f + B/2) / (f - B/2))`` evaluated left to right, with the
    hop's prefix computed once and the logarithm read from
    :data:`_LOG_RATIOS`.  An overlapping channel reads None there, and
    the product's ``TypeError`` becomes :class:`PhyModelError`, so the
    loop makes no overlap test of its own.
    """
    center, _, psd, _ = target
    phi = PHI
    tables = _LOG_RATIOS
    try:
        for span_count, channels in hops:
            scale = span_count * phi * psd
            for other_center, half, _, power in channels.values():
                total += scale * power * tables[half][other_center - center]
    except TypeError:
        _raise_overlap(center, hops, None)
        raise
    return total


def xci_from(source, hops, deltas: dict) -> None:
    """Add the XCI ``source`` puts on each channel of each hop to ``deltas``.

    ``source`` is a :attr:`Channel.record` and ``hops`` a sequence of
    ``(span_count, channels)`` pairs as for :func:`xci_onto`.  Hop by
    hop, ``deltas[id]`` grows by the term :func:`xci_psd` gives for that
    channel as target and ``source`` as interferer, from the prefix
    ``span_count * phi`` and the source's squared PSD, with the
    logarithm read from the source width's table in
    :data:`_LOG_RATIOS`.  While ``deltas`` is empty a term is stored
    as it is: the terms are positive, and ``0.0 + term`` is ``term``.
    Raises :class:`PhyModelError` when the source overlaps a channel's
    centre, as :func:`xci_onto` does.
    """
    center, half, _, power = source
    phi = PHI
    table = _LOG_RATIOS[half]
    get = deltas.get
    try:
        for span_count, channels in hops:
            scale = span_count * phi
            if deltas:
                for key, (other_center, _, psd, _) in channels.items():
                    deltas[key] = get(key, 0.0) + scale * psd * power * table[other_center - center]
            else:
                for key, (other_center, _, psd, _) in channels.items():
                    deltas[key] = scale * psd * power * table[other_center - center]
    except TypeError:
        _raise_overlap(center, hops, half)
        raise


def jamming_psd(
    target: Channel,
    span_count: int,
    jammers,
    epsilon_w: float,
) -> float:
    """Jamming noise PSD on one attacked link of ``span_count`` spans.

    A jammed channel overlapping the target adds the in-band excess of
    :func:`inband_jamming_psd` once.  A disjoint one of bandwidth ``B``
    contributes the :func:`xci_onto` term with ``(eps^2 + 2 eps P) / B^2``
    in place of the squared PSD of a legitimate channel, which is exactly
    the NLI of a channel at power ``P + eps`` minus the NLI of one at
    power ``P``.  Exactly 0.0 when ``epsilon_w`` is zero or
    ``jammers`` is empty.
    """
    if epsilon_w < 0.0:
        raise ValueError(f"epsilon_w must be non-negative, got {epsilon_w!r}")
    excess = epsilon_w * epsilon_w + 2.0 * epsilon_w * TX_POWER_W
    total = 0.0
    for jam in jammers:
        if target.overlap_hz(jam) > 0.0:
            total += inband_jamming_psd(target, jam, epsilon_w)
        else:
            record = jam.record[:3] + (excess / jam.bandwidth_hz**2,)
            total = xci_onto(target.record, ((span_count, {0: record}),), total)
    return total


def inband_jamming_psd(target: Channel, jammer: Channel, epsilon_w: float) -> float:
    """Direct noise PSD seen by a victim overlapping the jammed range.

    The jammer's excess PSD (epsilon spread over the jammed bandwidth)
    falls inside the victim's band over the overlap only, so the
    equivalent flat noise PSD is scaled by the overlapped fraction of the
    victim's bandwidth.  Injected power rides along with the signal, so
    this term is added once per traversal of the attacked fibre rather
    than once per span.  Zero when the spectra are disjoint or epsilon
    is zero, keeping the no-extra-power case identical to no attack.
    """
    overlap = target.overlap_hz(jammer)
    if overlap <= 0.0 or epsilon_w <= 0.0:
        return 0.0
    excess_psd = epsilon_w / jammer.bandwidth_hz
    return excess_psd * (overlap / target.bandwidth_hz)


def snr(
    target: Channel,
    route,
    per_link_state,
    jammer_epsilon_w: float | None,
) -> float:
    """Linear SNR of ``target`` over ``route``.

    ``per_link_state`` is a sequence aligned with ``route.links`` whose
    elements list every channel co-propagating on that link, the target
    excluded and jammer channels included (flagged ``is_jammer``).
    ``jammer_epsilon_w`` is the attacker's extra linear power; ``None``
    means no attacker and any jammer-flagged channels contribute
    nothing.
    """
    if len(per_link_state) != len(route.links):
        raise ValueError("per_link_state must align with route.links")
    noise = ase_psd(route) + sci_psd(target, route.total_spans)
    for link, channels in zip(route.links, per_link_state):
        signals = {key: other.record for key, other in enumerate(channels) if not other.is_jammer}
        jammers = [other for other in channels if other.is_jammer]
        noise = xci_onto(target.record, ((link.span_count, signals),), noise)
        if jammer_epsilon_w is not None:
            noise += jamming_psd(target, link.span_count, jammers, jammer_epsilon_w)
    return target.psd_w_per_hz / noise


def qot_verdict(snr_linear: float, modulation: Modulation) -> bool:
    """True when the SNR meets the modulation threshold (inclusive).

    The verdict is ``linear_to_db(snr_linear) >= snr_threshold_db``.  An
    SNR at or above the upper edge of :attr:`Modulation.qot_band` lies
    at least ``10 * log10(1 + QOT_BAND)``, about 4e-9 dB, above the
    threshold, and one below the lower edge as far below it; the dB
    value and the band edges are each off by a few units in the last
    place, far less than that, so outside the band the edge decides the
    same way.  Only inside the band is the logarithm taken.
    """
    low, high = modulation.qot_band
    if snr_linear >= high:
        return True
    if snr_linear < low:
        return False
    return linear_to_db(snr_linear) >= modulation.snr_threshold_db
