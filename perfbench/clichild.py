"""Run one CLI command with the package's public functions traced.

    clichild.py SPANS_FILE ARGS...

Used by the cli workload's traced pass in place of
`python -m charlier_hermite.cli ARGS...`; stdout and the exit code are the
CLI's own, and the spans go to SPANS_FILE as JSON.
"""

import json
import sys

import layers
import spans


def main(argv):
    import charlier_hermite.cli as cli
    tracer = spans.Tracer()
    layers.install(tracer)
    run = tracer.wrap("cli.main", cli.main, "cli")
    try:
        code = run(argv[1:])
    finally:
        sys.stdout.flush()
        with open(argv[0], "w") as f:
            json.dump(tracer.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
