"""Let the ``python -m bigthorp`` subprocess tests import the package from
``src/`` in an uninstalled checkout, as ``pythonpath`` in pyproject.toml
does for the test process itself."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)
