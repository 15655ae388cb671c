"""The NGST application substrate (§2).

The Next Generation Space Telescope data-processing benchmark: multiple
non-destructive readouts per 1000-second baseline are compared and
integrated onboard to reject cosmic-ray hits, then Rice-compressed for
the bandwidth-limited downlink.  This subpackage implements that data
path end to end:

* :mod:`repro.ngst.ramp` — the accumulating-readout detector model;
* :mod:`repro.ngst.cosmic_rays` — CR hit injection and ramp-fit
  rejection (the paper's refs. [10–12]);
* :mod:`repro.ngst.rice` — the Rice entropy codec used for downlink;
* :mod:`repro.ngst.fragment` — 1024²→128² fragmentation / reassembly;
* :mod:`repro.ngst.cluster` — the master/worker pipeline of Figure 1 on
  the :mod:`repro.sim` discrete-event substrate;
* :mod:`repro.ngst.downlink` — the packetised, CRC-16 protected ARQ
  downlink that carries the compressed baseline to the ground;
* :mod:`repro.ngst.integrated` — preprocessing fused into the
  application (§9): one FITS decode, no re-encode.
"""

from repro.ngst.cluster import (
    ClusterConfig,
    CRRejectionPipeline,
    PipelineReport,
    ScheduleReport,
)
from repro.ngst.cosmic_rays import (
    CosmicRayModel,
    reject_cosmic_rays,
    reject_cosmic_rays_segmented,
)
from repro.ngst.downlink import ARQDownlink, DownlinkConfig, DownlinkReport, crc16
from repro.ngst.fragment import fragment_stack, reassemble
from repro.ngst.ramp import RampModel
from repro.ngst.rice import rice_decode, rice_encode

__all__ = [
    "ARQDownlink",
    "CRRejectionPipeline",
    "ClusterConfig",
    "CosmicRayModel",
    "DownlinkConfig",
    "DownlinkReport",
    "PipelineReport",
    "RampModel",
    "ScheduleReport",
    "crc16",
    "fragment_stack",
    "reassemble",
    "reject_cosmic_rays",
    "reject_cosmic_rays_segmented",
    "rice_decode",
    "rice_encode",
]
