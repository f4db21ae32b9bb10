"""Instruction-level AVR simulator: memory, bus, core, machine."""

from repro.sim.bus import BusInterposer, DataBus, ReadAction, WriteAction
from repro.sim.core import AvrCore
from repro.sim.errors import (
    BadOpcode,
    CycleLimitExceeded,
    InvalidAccess,
    SimError,
)
from repro.sim.devices import OutputPort, PeriodicTimer
from repro.sim.events import AccessKind
from repro.sim.interrupts import InterruptController
from repro.sim.machine import CALL_SENTINEL_WORD, Machine
from repro.sim.memory import Memory
from repro.sim.snapshot import SNAPSHOT_SCHEMA, MachineSnapshot

__all__ = [
    "BusInterposer",
    "DataBus",
    "ReadAction",
    "WriteAction",
    "AvrCore",
    "BadOpcode",
    "CycleLimitExceeded",
    "InvalidAccess",
    "SimError",
    "AccessKind",
    "OutputPort",
    "PeriodicTimer",
    "InterruptController",
    "CALL_SENTINEL_WORD",
    "Machine",
    "MachineSnapshot",
    "SNAPSHOT_SCHEMA",
    "Memory",
]
