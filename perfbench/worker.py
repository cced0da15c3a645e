"""Child-process entry point: ``python3 perfbench/worker.py <task> <json>``.

``<task>`` names ``<module>.<function>`` among the benchmark's modules
(e.g. ``build.cold``); the function receives the decoded JSON arguments,
calls :func:`ready` once its set-up is done and returns a JSON-ready
result, which is printed on one ``PERFBENCH-RESULT`` line.  Every
measured cold build and every drift repetition runs in a fresh worker, so
no memo, tree cache or compiled table carries over between them.
"""

from __future__ import annotations

import importlib
import json
import sys

from common import RESULT, SRC

sys.path.insert(0, str(SRC))


def main(argv: list[str]) -> int:
    task, raw = argv
    module_name, function_name = task.split(".")
    function = getattr(importlib.import_module(module_name), function_name)
    result = function(json.loads(raw))
    print(RESULT + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
