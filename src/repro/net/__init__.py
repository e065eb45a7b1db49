"""Simulated network substrate (DESIGN.md S1-S4).

A discrete-event kernel (:mod:`repro.net.sim`), a packet-level network
(Ethernet/ARP/IP/ICMP/TCP), and the two socket APIs the paper
contrasts: BSD sockets (:mod:`repro.net.bsd`) and the Dynamic C API
(:mod:`repro.net.dynctcp`).
"""

from repro.net.addresses import (
    BROADCAST_IP,
    BROADCAST_MAC,
    INADDR_ANY,
    Ipv4Address,
    MacAddress,
    ip,
    mac,
)
from repro.net.host import Host, build_lan
from repro.net.link import EthernetSegment, NetworkInterface
from repro.net.sim import Event, Process, SimulationError, Simulator

__all__ = [
    "BROADCAST_IP",
    "BROADCAST_MAC",
    "EthernetSegment",
    "Event",
    "Host",
    "INADDR_ANY",
    "Ipv4Address",
    "MacAddress",
    "NetworkInterface",
    "Process",
    "SimulationError",
    "Simulator",
    "build_lan",
    "ip",
    "mac",
]
