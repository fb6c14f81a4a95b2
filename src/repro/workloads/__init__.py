"""Workloads: synthetic trace generators, SPEC/TPC/STREAM-like
profiles and the paper's multiprogrammed 8-core mixes.
"""

from repro._lazy import lazy_exports

__all__ = [
    "stream_trace",
    "random_trace",
    "chase_trace",
    "zipf_trace",
    "mixed_trace",
    "bounded_footprint_lines",
    "WORKLOAD_NAMES",
    "WorkloadProfile",
    "get_profile",
    "make_trace",
    "MIX_NAMES",
    "mix_composition",
    "make_mix_traces",
    "TraceFormatError",
    "WorkloadFingerprint",
    "fingerprint_file",
    "fingerprint_records",
    "fingerprint_workload",
    "ingest_trace_file",
    "trace_file_sha256",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.workloads.synthetic": (
        "stream_trace", "random_trace", "chase_trace", "zipf_trace",
        "mixed_trace", "bounded_footprint_lines",
    ),
    "repro.workloads.spec_like": (
        "WORKLOAD_NAMES", "WorkloadProfile", "get_profile",
        "make_trace",
    ),
    "repro.workloads.mixes": (
        "MIX_NAMES", "mix_composition", "make_mix_traces",
    ),
    "repro.workloads.ingest": (
        "TraceFormatError", "WorkloadFingerprint", "fingerprint_file",
        "fingerprint_records", "fingerprint_workload",
        "ingest_trace_file", "trace_file_sha256",
    ),
})
