"""Simulated MPI runtime: communicator, non-blocking requests, event
log, and the lockstep / thread-parallel / process-parallel executors
(plus the shared-memory transport the process tier uses)."""

from .events import CommEvent, EventLog
from .executor import LockstepExecutor, ParallelExecutor, make_executor
from .procexec import ProcessExecutor, fork_available
from .requests import Request, irecv, isend, waitall
from .shmem import RingBuffer, RingTransport, SegmentRegistry
from .simmpi import SimComm

__all__ = [
    "CommEvent",
    "EventLog",
    "SimComm",
    "LockstepExecutor",
    "ParallelExecutor",
    "ProcessExecutor",
    "fork_available",
    "SegmentRegistry",
    "RingBuffer",
    "RingTransport",
    "make_executor",
    "Request",
    "isend",
    "irecv",
    "waitall",
]
