"""Make ``repro`` (under ``src/``) and ``mgbench`` importable for the tests."""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for path in (str(_ROOT / "src"), str(_ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)
