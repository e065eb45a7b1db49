"""Dynamic C runtime semantics (DESIGN.md S12)."""

from repro.dync.runtime.costate import (
    Costate,
    CostateError,
    CostateScheduler,
    DEFAULT_PASS_OVERHEAD_S,
    IDLE,
    idle_until,
    waitfor,
)
from repro.dync.runtime.slice_stmt import Slice, SliceError, SliceScheduler
from repro.dync.runtime.ucos import MicroCos, Task, UcosError
from repro.dync.runtime.storage import (
    BatteryBackedRam,
    ProtectedVariable,
    SharedVariable,
    StaticLocals,
    UnsharedMultibyte,
)
from repro.dync.runtime.xalloc import (
    XallocError,
    XmemAllocator,
    XmemBufferPool,
    XmemPointer,
)

__all__ = [
    "BatteryBackedRam",
    "Costate",
    "CostateError",
    "CostateScheduler",
    "DEFAULT_PASS_OVERHEAD_S",
    "IDLE",
    "MicroCos",
    "ProtectedVariable",
    "SharedVariable",
    "Slice",
    "SliceError",
    "SliceScheduler",
    "StaticLocals",
    "Task",
    "UcosError",
    "UnsharedMultibyte",
    "XallocError",
    "XmemAllocator",
    "XmemBufferPool",
    "XmemPointer",
    "idle_until",
    "waitfor",
]
