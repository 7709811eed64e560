"""Traced server: ``python perfbench/serve_launcher.py <trace.json> serve ...``.

Installs the layer ledger (``layers.install``) plus a timer on every
callback the asyncio event loop runs, then runs the program's own
``serve`` command-line entry with the remaining arguments.  SIGTERM is
turned into the interrupt the ``serve`` entry shuts down on, so the server
closes as usual and the ledger is written to ``<trace.json>``.

The stack-based boundaries run on the cluster's dispatch thread.  The
event-loop thread is the HTTP front door: it reads and parses requests,
routes them, hands service calls to the dispatch thread and writes the
responses.  Each callback it runs is recorded as an ``http.loop`` interval,
in a list of its own: together they are the front door's own busy time.
An HTTP request that is waiting for the dispatcher costs the loop nothing.
"""

import signal
import sys
from time import perf_counter


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def _trace_loop(ledger) -> list:
    """Time every event-loop callback; returns the list its intervals go to."""
    from asyncio import events

    run = events.Handle._run
    spans = []

    def timed(self):
        start = perf_counter()
        try:
            return run(self)
        finally:
            spans.append(("http.loop", start, perf_counter(), -1, ()))

    ledger.patch(events.Handle, "_run", timed)
    return spans


def main() -> int:
    from layers import Ledger, install

    out_path, argv = sys.argv[1], sys.argv[2:]
    signal.signal(signal.SIGTERM, _interrupt)
    ledger = install(Ledger())
    loop_spans = _trace_loop(ledger)
    from repro.__main__ import main as serve_main

    try:
        return serve_main(argv)
    finally:
        ledger.uninstall()
        ledger.spans.extend(loop_spans)
        ledger.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
