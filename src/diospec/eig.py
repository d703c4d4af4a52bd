"""Empty: the shifted-QR reference eigensolver moved to ``tests/qr_reference.py``.
The module stays only because ``perfbench/tracer.py`` imports it, and ``perfbench/``
changes only with the benchmark; it goes with that import (ROADMAP item 1)."""
