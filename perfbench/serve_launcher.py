"""Start ``repro serve`` with the layer wrappers installed; write spans on exit.

    python3 perfbench/serve_launcher.py SPANS.json [repro CLI arguments...]

Runs ``repro.cli.main`` on the given arguments in this process, after
:meth:`tracing.Tracer.install`, and writes every recorded span to
``SPANS.json`` once the server has drained.
"""

from __future__ import annotations

import sys

import common


def main(argv: list[str]) -> int:
    common.require_checkout()
    from tracing import Tracer

    import repro.cli

    tracer = Tracer()
    tracer.install()
    try:
        return repro.cli.main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
