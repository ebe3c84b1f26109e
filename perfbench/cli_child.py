"""Run one ``aregularity`` CLI request with the outside-in tracer installed.

    python perfbench/cli_child.py SPANS.json ARGS...

Behaves like ``python -m aregularity.cli ARGS...`` (same stdout, stderr and
exit code) and writes the request's spans to SPANS.json, with the time the
tracer took to install and to serialize the spans, so that the caller can
subtract the tracer's own cost from the process wall time.
"""

import json
import sys
from time import perf_counter

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from aregularity import cli
    t0 = perf_counter()
    tracer = Tracer()
    tracer.install()
    install_s = perf_counter() - t0
    code = cli.main(argv)
    sys.stdout.flush()
    t1 = perf_counter()
    spans = json.dumps(tracer.spans)
    serialize_s = perf_counter() - t1
    with open(spans_path, "w") as fh:
        fh.write(f'{{"install_s": {install_s!r}, "serialize_s": {serialize_s!r}, '
                 f'"bindings": {json.dumps(tracer.bindings)}, '
                 f'"missing": {json.dumps(tracer.missing)}, "spans": {spans}}}')
    return code


if __name__ == "__main__":
    sys.exit(main())
