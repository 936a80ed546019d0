"""Test-session set-up: subprocesses that run `python -m spincorr` import
this checkout's `src`, as the pytest process does through pyproject's
`pythonpath`."""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (SRC, os.environ.get("PYTHONPATH")) if path
)
