"""One worker of the benchmark's answer checker.

Run by ``perfbench/harness.py``, never by hand::

    python3 perfbench/reference_main.py --store DIR --queries IN --digests OUT

It answers each query of ``IN`` (one JSON string per line) with a
direct (no HTTP) ``QueryService`` over the store in ``DIR``, using the
scalar engine and no planner, and writes the answer digests to ``OUT``,
one line per query, in the same order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from harness import answer_digest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--queries", required=True)
    parser.add_argument("--digests", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.service import QueryService, ShardedStore

    with open(args.queries) as f:
        queries = [json.loads(line) for line in f]
    digests = []
    with QueryService(
        ShardedStore.open(args.store),
        backend="serial", engine="scalar", planner=False, feedback=False,
    ) as reference:
        for query in queries:
            result = reference.execute(query, use_cache=False)
            digests.append(answer_digest(
                result.total,
                [(name, [int(r) for r in ranks])
                 for name, ranks in result.per_document.items()],
            ))
    with open(args.digests, "w") as f:
        f.writelines(digest + "\n" for digest in digests)
    return 0


if __name__ == "__main__":
    sys.exit(main())
