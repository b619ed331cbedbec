"""Let the interpreters that tests start import lipctx from this checkout.

``pythonpath`` in ``pyproject.toml`` puts ``src`` on this process's
``sys.path`` only; the cross-process determinism tests run
``python -m lipctx.cli`` and ``python -c``, which read ``PYTHONPATH``.
"""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
