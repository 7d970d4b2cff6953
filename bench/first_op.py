"""Set-up probe, run in a fresh interpreter by ``run.py``.

Usage: python3 first_op.py ROOT WORKLOAD PAYLOAD_JSON

Prints one JSON object: the seconds from importing the package (through
``ops``, which imports nothing else) to the end of the workload's first
operation, and whether that operation succeeded.  The payload holds the
operation's inputs as plain numbers (or CLI arguments).
"""

import json
import os
import sys
import time


def main() -> None:
    root, workload, payload = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    sys.path[:0] = [os.path.dirname(os.path.abspath(__file__)), os.path.join(root, "src")]
    t0 = time.perf_counter()
    import ops

    if workload == "plan-mixed":
        ok = ops.plan(ops.make_scenario(*payload)).best is not None
    elif workload == "roots-direct":
        ops.solve_roots(ops.make_coeffs(*payload))
        ok = True
    else:
        ok = ops.run_cli(payload) == 0
    seconds = time.perf_counter() - t0
    print(json.dumps({"ok": ok, "seconds": seconds}))


if __name__ == "__main__":
    main()
