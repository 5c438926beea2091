"""Broker server process of the wire-mixed workload.

Usage: ``python3 perfbench/server_child.py <trace 0|1>``.  Builds a
``SliceBroker(testbed_topology, BendersSolver(multi_cut=True))`` behind a
``BrokerServer`` on an ephemeral local port, prints ``{"port": ...}`` once
it accepts connections, and serves until a line (or EOF) arrives on stdin.
It then stops the server and prints ``{"peak_rss_mb": ..., "spans": [...]}``
-- the spans are empty unless tracing was requested.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from common import peak_rss_mb  # noqa: E402
from tracer import Tracer, install  # noqa: E402


def main() -> int:
    traced = sys.argv[1] == "1"
    tracer = Tracer() if traced else None
    if tracer is not None:
        install(tracer)

    from repro.api import BrokerServer, SliceBroker
    from repro.core.benders import BendersSolver
    from repro.topology import operators

    broker = SliceBroker(
        topology=operators.testbed_topology(), solver=BendersSolver(multi_cut=True)
    )
    server = BrokerServer(broker).start()
    try:
        print(json.dumps({"port": server.port}), flush=True)
        sys.stdin.readline()
    finally:
        server.stop()
    spans = tracer.export() if tracer is not None else []
    print(json.dumps({"peak_rss_mb": peak_rss_mb(), "spans": spans}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
