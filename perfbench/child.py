"""Run one ``contprune`` command through ``contprune.cli.main``.

    python perfbench/child.py [--trace-out FILE] -- <contprune arguments>

Without ``--trace-out`` this imports the CLI and calls it, nothing else, so
an untraced run pays for no wrapper. With it, the tracer's wrappers are
installed first and the span summary is written to FILE as JSON after the
command returns. The caller sets PYTHONPATH and the BLAS thread pins.
"""
from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        raise SystemExit("usage: child.py [--trace-out FILE] -- <contprune arguments>")
    from contprune import cli

    if trace_out is None:
        return cli.main(argv[1:])
    import tracer as tracer_mod

    tracer = tracer_mod.install(tracer_mod.Tracer())
    code = cli.main(argv[1:])
    with open(trace_out, "w") as fh:
        json.dump(tracer.summary(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
