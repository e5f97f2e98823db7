"""Traced CLI run: ``python -X importtime launcher.py <spans.json> <cli args...>``.

Imports ``bardina_strip.cli`` first, between two marker lines on stderr, so
``-X importtime`` attributes the package's whole import to it; then installs
the tracer's wrappers, calls ``bardina_strip.cli.main`` with the remaining
arguments and writes the spans when it returns.
"""

import sys

IMPORT_BEGIN = "perfbench: import begin"
IMPORT_END = "perfbench: import end"


def main(argv):
    print(IMPORT_BEGIN, file=sys.stderr, flush=True)
    import bardina_strip.cli
    print(IMPORT_END, file=sys.stderr, flush=True)

    import tracer as tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return bardina_strip.cli.main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
