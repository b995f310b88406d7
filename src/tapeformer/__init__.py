"""tapeformer: node classification on text-attributed citation graphs.

Combines cached LLM outputs (ranked predictions + explanations), hashed
text features, and dataset features into fused node embeddings, then
classifies nodes with a graph transformer whose attention is biased by
shortest-path distances, path edge features, and degree centrality.
"""
import ctypes
import os

__version__ = "0.1.0"

# on glibc, heap that one phase frees stays mapped for the next to reuse (README, "Memory")
MMAP_THRESHOLD = 32 << 20  # glibc's ceiling for its own dynamic threshold
TRIM_THRESHOLD = 64 << 20
if "CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {}):  # a glibc build of Python
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
    _mallopt(-1, TRIM_THRESHOLD)  # M_TRIM_THRESHOLD
