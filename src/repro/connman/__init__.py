"""Simulated Connman: versions, vulnerable dnsproxy, daemon lifecycle."""

from .config import DEFAULT_MAIN_CONF, MainConf, MainConfError, parse_main_conf
from .gueststore import GuestBackedDnsCache
from .daemon import ConnmanDaemon, Transport
from .dnsproxy import DnsProxyCore, FramePlacement, MAX_POINTER_JUMPS
from .supervisor import DaemonSupervisor, RestartRecord
from .frames import ARM_FRAME, FRAME_MODELS, NAME_BUFFER_SIZE, X86_FRAME, FrameModel, frame_model
from .outcomes import DaemonEvent, EventKind
from .services import (
    NetworkService,
    ServiceManager,
    ServiceState,
    ServiceType,
    strength_from_dbm,
)
from .version import (
    CVE_ID,
    FIRST_FIXED,
    FIXED_IN,
    KNOWN_VERSIONS,
    LAST_VULNERABLE,
    ConnmanVersion,
)

__all__ = [
    "ARM_FRAME",
    "ConnmanDaemon",
    "ConnmanVersion",
    "CVE_ID",
    "DaemonEvent",
    "DaemonSupervisor",
    "DEFAULT_MAIN_CONF",
    "GuestBackedDnsCache",
    "MainConf",
    "MainConfError",
    "parse_main_conf",
    "DnsProxyCore",
    "EventKind",
    "FIRST_FIXED",
    "FIXED_IN",
    "FRAME_MODELS",
    "frame_model",
    "FrameModel",
    "FramePlacement",
    "KNOWN_VERSIONS",
    "LAST_VULNERABLE",
    "MAX_POINTER_JUMPS",
    "NAME_BUFFER_SIZE",
    "NetworkService",
    "RestartRecord",
    "ServiceManager",
    "Transport",
    "ServiceState",
    "ServiceType",
    "strength_from_dbm",
    "X86_FRAME",
]
