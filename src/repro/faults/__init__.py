"""repro.faults: deterministic, seeded fault-injection campaigns.

The paper's port concedes robustness everywhere it gains footprint -- a
static three-connection ceiling, allocate-only memory, a TCP stack the
authors had to trust blindly -- yet reproductions are usually measured
on a perfect network.  This subsystem drives the reproduced services
through failure on purpose:

* :mod:`repro.faults.injectors` -- composable injectors for link faults
  (drop/duplicate/delay/corrupt frames via the
  :class:`~repro.net.link.EthernetSegment` frame-hook chain), record
  faults (bit flips inside issl ciphertext), memory faults (xalloc
  exhaustion at a chosen allocation), and scheduler faults (a starving
  costatement).
* :mod:`repro.faults.clients` -- misbehaving peers: silent, stalling,
  and mid-handshake RST/FIN clients.
* :mod:`repro.faults.scenarios` -- named end-to-end scenarios against
  the echo and redirector services over simulated time.
* :mod:`repro.faults.campaign` -- the runner behind
  ``python -m repro.faults {list,run,matrix,soak}``: pass/fail verdicts,
  ``faults.injected.*``/``faults.recovered.*`` counters, and JSON
  reports byte-identical for a given seed.
"""

from repro.faults.injectors import (
    CorruptFrames,
    CorruptingTransport,
    DelayFrames,
    DropFrames,
    DuplicateFrames,
    ExhaustingXmemAllocator,
    has_tcp_payload,
    install,
    is_tcp,
    is_tcp_syn,
    match_every,
    match_nth,
    match_probability,
    starving_costate,
    tcp_payload_prefix,
    uninstall,
)
from repro.faults.campaign import (
    DEFAULT_SEED,
    REPORT_SCHEMA_VERSION,
    run_matrix,
    run_scenario,
    run_soak,
    scenario_names,
)

__all__ = [
    "CorruptFrames",
    "CorruptingTransport",
    "DEFAULT_SEED",
    "DelayFrames",
    "DropFrames",
    "DuplicateFrames",
    "ExhaustingXmemAllocator",
    "REPORT_SCHEMA_VERSION",
    "has_tcp_payload",
    "install",
    "is_tcp",
    "is_tcp_syn",
    "match_every",
    "match_nth",
    "match_probability",
    "run_matrix",
    "run_scenario",
    "run_soak",
    "scenario_names",
    "starving_costate",
    "tcp_payload_prefix",
    "uninstall",
]
