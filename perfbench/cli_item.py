"""One traced `polyvar paper-example` item in a fresh interpreter.

    python3 perfbench/cli_item.py PRESET_ID REPORT_PATH SPANS_PATH

Runs `polyvar.cli.main(["paper-example", PRESET_ID, "--out", REPORT_PATH])`
with the layer spans of tracing.py recorded, writes them to SPANS_PATH as JSON
and exits with the CLI's exit code.  The untraced item runs
`python3 -m polyvar.cli` directly instead.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from tracing import Tracer  # noqa: E402  (perfbench/ is sys.path[0])


def main() -> int:
    preset, report, spans_path = sys.argv[1:4]
    tracer = Tracer()
    tracer.install()
    from polyvar import cli

    tracer.on = True
    try:
        code = cli.main(["paper-example", preset, "--out", report])
    finally:
        tracer.on = False
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
