"""Packet-level discrete-event network simulator.

This is the substrate the paper's tooling runs against in this
reproduction: simulated hosts with a tc-like tap chain (where
Millisampler attaches), a shared-memory ToR switch with the
Choudhury-Hahne dynamic-threshold buffer, static-threshold ECN marking,
multicast replication, and DCTCP/Cubic TCP endpoints.
"""

from .audit import AuditTap, InvariantAuditor, active_tap, audited, install, uninstall
from ..errors import InvariantViolation
from .engine import Engine
from .clock import HostClock, NtpDiscipline
from .packet import Packet, FlowKey
from .link import Link
from .buffer import SharedBuffer, BufferAdmission
from .queues import EgressQueue
from .switch import ToRSwitch
from .host import Host
from .tap import PacketTap, TapChain, MillisamplerTap
from .topology import Rack, build_rack
from .fabric import FabricSwitch, Pod, build_pod

__all__ = [
    "AuditTap",
    "InvariantAuditor",
    "InvariantViolation",
    "active_tap",
    "audited",
    "install",
    "uninstall",
    "Engine",
    "HostClock",
    "NtpDiscipline",
    "Packet",
    "FlowKey",
    "Link",
    "SharedBuffer",
    "BufferAdmission",
    "EgressQueue",
    "ToRSwitch",
    "Host",
    "PacketTap",
    "TapChain",
    "MillisamplerTap",
    "Rack",
    "build_rack",
    "FabricSwitch",
    "Pod",
    "build_pod",
]
