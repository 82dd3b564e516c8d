"""Set-up cost of a fresh process: ``import jumpfolio.cli`` plus the first
``load_config``.  CLI users pay this on every command.

Usage: python3 bench/setup_probe.py SRC_DIR CONFIG.yaml
Prints one JSON list: [import_s, load_config_s].
"""

import json
import sys
import time

src, config = sys.argv[1:3]
sys.path.insert(0, src)
t0 = time.perf_counter()
import jumpfolio.cli  # noqa: E402

t1 = time.perf_counter()
jumpfolio.cli.load_config(config)
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1]))
