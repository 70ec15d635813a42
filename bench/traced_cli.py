"""Run the socialqe CLI with the benchmark tracer installed.

    python3 bench/traced_cli.py SPANS.json build-index --corpus ... --out ...

Writes the aggregated spans and counters of the command to SPANS.json and
exits with the CLI's own exit code. `run.py` starts it as its traced build.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import socialqe.cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    with tracer.phase("cli." + argv[0]):
        code = socialqe.cli.main(argv)
    Path(spans_out).write_text(json.dumps(tracer.snapshot()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
