"""Set-up time in a fresh process: ``import spincorr`` plus ``load_model``.

    setup_probe.py <model>

Prints one JSON object with ``setup_s`` and the imported package path.
"""

import json
import sys
import time

start = time.perf_counter()
import spincorr  # noqa: E402  (the import is what is timed)
from spincorr.modelfile import load_model  # noqa: E402

load_model(sys.argv[1])
print(json.dumps({"setup_s": time.perf_counter() - start, "module": spincorr.__file__}))
