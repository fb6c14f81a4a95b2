"""Memory controller: request queues, scheduling, row-buffer policies
and the command-issue engine that hosts the latency mechanisms.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Request",
    "RequestType",
    "RequestQueue",
    "AddressMapper",
    "OpenRowPolicy",
    "ClosedRowPolicy",
    "make_row_policy",
    "FRFCFSScheduler",
    "FCFSScheduler",
    "make_scheduler",
    "MemoryController",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.controller.request": ("Request", "RequestType"),
    "repro.controller.queues": ("RequestQueue",),
    "repro.controller.address_mapping": ("AddressMapper",),
    "repro.controller.row_policy": (
        "OpenRowPolicy", "ClosedRowPolicy", "make_row_policy",
    ),
    "repro.controller.scheduler": (
        "FRFCFSScheduler", "FCFSScheduler", "make_scheduler",
    ),
    "repro.controller.controller": ("MemoryController",),
})
