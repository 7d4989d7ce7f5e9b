"""The server under test, in a process of its own.

``python -m perfbench.server '<json config>'`` starts a
:class:`repro.serve.ShardedServer` with the given keyword arguments, prints
one JSON line with the router port, the worker ports and the worker
process ids, then obeys one-word commands on stdin:

* ``rss`` — answer the peak RSS (``VmHWM``) summed over this process,
  which runs the router thread, and every worker process;
* ``stop`` (or end of input, or SIGTERM) — stop the server, answer, exit.

The router runs as a thread of whichever process starts the server, so
it must not share an interpreter with the load generator.  The server
starts on every CPU the benchmark may use; once it has started, the
router is pinned beside the load generator and the workers to the other
CPUs (:func:`perfbench.common.place_server`).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

from repro.serve import ShardedServer

from perfbench.common import exit_on_sigterm, place_server, release_cpus, vm_hwm_mb


def main(argv: list) -> int:
    exit_on_sigterm()
    release_cpus()
    server = ShardedServer(**json.loads(argv[1]))
    try:
        router_port = server.start()
        place_server(child.pid for child in multiprocessing.active_children())
        print(
            json.dumps(
                {
                    "router_port": router_port,
                    "worker_ports": list(server.worker_ports),
                    "worker_pids": [
                        child.pid for child in multiprocessing.active_children()
                    ],
                }
            ),
            flush=True,
        )
        for line in sys.stdin:
            word = line.strip()
            if word == "rss":
                pids = [os.getpid()] + [
                    child.pid for child in multiprocessing.active_children()
                ]
                print(json.dumps({"peak_rss_mb": vm_hwm_mb(pids)}), flush=True)
            elif word == "stop":
                break
    finally:
        server.stop()
    print(json.dumps({"stopped": True}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
