"""Helpers shared by the test modules."""

import tracemalloc


def traced_peak(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak)``: the call's result and the most bytes
    tracemalloc saw allocated at once while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
