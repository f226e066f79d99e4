"""``PoleError``, the error that a pole in a lower pFq parameter of a closed form raises.

The module stays only because the benchmark's tracer (``bench/tracer.py``) lists
``hypergeom`` among the modules that it imports; it goes when that list drops it.
"""


class PoleError(ZeroDivisionError):
    """A lower pFq parameter hit a non-positive integer within the term range."""
