"""Compile-once / run-many execution layer over the simulated modem.

The paper's toolflow separates compilation (DRESC modulo scheduling,
linking) from execution: a baseband program is compiled once per
architecture and parameter set, and the control processor then streams
packets through the resident configuration, patching only the
packet-dependent constants.  :class:`ModemRuntime` reproduces that
split on top of :class:`repro.modem.receiver.SimReceiver`, whose region
programs are pure functions of (architecture, seed, memory map, OFDM
params, packet shape): resident cores run chunks of up to ``batch``
same-shape packets in lockstep, a single packet being a chunk of one.
``BatchedModemRuntime`` is the same class under its serving name.
"""

from repro.runtime.modem import BatchedModemRuntime, BatchPacketResult, ModemRuntime
from repro.runtime.workload import PacketCase, generate_packets, make_packet

__all__ = [
    "BatchPacketResult",
    "BatchedModemRuntime",
    "ModemRuntime",
    "PacketCase",
    "generate_packets",
    "make_packet",
]
