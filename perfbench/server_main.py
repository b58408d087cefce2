"""The benchmark's server process: one store served the way ``repro serve`` does.

Run by ``perfbench/run.py``, never by hand::

    python3 perfbench/server_main.py --store DIR --backend serial

It opens the store, serves it with :class:`repro.server.QueryServer`
over :class:`repro.service.QueryService` with the default
``ServerConfig`` on an OS-assigned port, and prints ``ready <port>``.
It then reads one command per line from standard input and answers
each with ``ok``:

``trace``         install the layer spans of ``tracer.py``;
``report PATH``   write the spans and counter deltas to ``PATH``;
``stop``          drain and exit (so does end of input).
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


#: With ``--plant-wrong``, every this-many-th answer loses a rank.
PLANT_EVERY = 50


def plant_wrong_answers(app) -> None:
    """Make the server drop one rank from every ``PLANT_EVERY``-th
    non-empty answer, so the benchmark's answer checker can be shown to
    catch wrong answers."""
    original = app.result_to_payload
    answers = 0

    def wrong(result):
        nonlocal answers
        payload = original(result)
        if result.mode == "materialize" and result.total:
            answers += 1
            if answers % PLANT_EVERY == 0:
                next(ranks for ranks in payload["per_document"].values() if ranks).pop()
        return payload

    app.result_to_payload = wrong


async def serve(service, plant_wrong: bool) -> None:
    from repro.server import QueryServer, ServerConfig, app

    if plant_wrong:
        plant_wrong_answers(app)
    server = QueryServer(service, ServerConfig(port=0))
    await server.start()
    print(f"ready {server.port}", flush=True)
    # Read commands on the event loop, not in a thread blocked inside
    # sys.stdin: a worker forked meanwhile (the fabric backend forks)
    # would inherit that thread's lock on stdin and hang closing it.
    commands = asyncio.StreamReader()
    await asyncio.get_running_loop().connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )
    tracer = None
    try:
        while True:
            line = (await commands.readline()).decode()
            command = line.split()
            if not command or command[0] == "stop":
                break
            if command[0] == "trace":
                tracer = Tracer()
                tracer.install(server, service)
            elif command[0] == "report" and tracer is not None:
                tracer.write(command[1])
            else:
                raise SystemExit(f"server_main: bad command {line!r}")
            print("ok", flush=True)
    finally:
        await server.shutdown()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--backend", required=True)
    parser.add_argument("--plant-wrong", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.service import QueryService, ShardedStore

    with QueryService(ShardedStore.open(args.store), backend=args.backend) as service:
        asyncio.run(serve(service, args.plant_wrong))
    return 0


if __name__ == "__main__":
    sys.exit(main())
