"""Elastic optical network simulator with jamming-aware control planes.

The package simulates dynamic circuit traffic on a flex-grid optical
network whose physical layer is evaluated with a Gaussian-noise
interference model extended with the effect of a high-power jamming
signal.  Three control planes can serve the same workload: one on a
clean network, one unaware of an ongoing attack, and one that detects
and spectrally avoids it.
"""

from .control_plane import (
    ControlMode,
    Lightpath,
    NetworkState,
    Verdict,
    detect_jamming,
    evaluate_candidate,
    handle_request,
    required_slots,
)
from .jammer import GroundTruth, JammerConfig, ground_truth_channels, resolve_target
from .metrics import (
    ReplicationResult,
    blocking_probability,
    slot_histogram,
    utilization_ranking,
)
from .phy import (
    MODULATIONS,
    Channel,
    Modulation,
    ase_psd,
    channel_for_block,
    db_to_linear,
    inband_jamming_psd,
    jamming_psd,
    linear_to_db,
    qot_verdict,
    sci_psd,
    slot_center_frequency,
    snr,
    xci_psd,
)
from .sim import (
    Request,
    ScenarioPoint,
    ScenarioResult,
    TrafficModel,
    compute_utilization_ranking,
    epsilon_sweep_values,
    generate_request,
    run_replication,
    run_scenario,
)
from .spectrum import (
    GUARDBAND_SLOTS,
    SLOT_COUNT,
    SlotBlock,
    SlotGrid,
    allocate,
    first_fit,
    fit_mask,
    release,
    utilization,
)
from .topology import Link, Route, Topology, load_topology, load_topology_file, nsfnet

__version__ = "0.1.0"
