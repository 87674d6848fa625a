"""Maintainer command: regenerate committed fixture artifacts.

    python -m tracer.fixtures regenerate

Reruns the pipeline on the scenario claim under its shipped mock script
and rewrites the expected-report artifact in place. Run this only when a
deliberate pipeline change alters the expected trace; tests compare
against the committed file byte for byte.
"""

from __future__ import annotations

import sys

from ..verdict import run_pipeline, save_reports
from . import SCENARIO_EXPECTED, data_path, load_scenario_record, make_scenario_gateway


def regenerate() -> int:
    record = load_scenario_record()
    gateway = make_scenario_gateway()
    report = run_pipeline(gateway, record)
    target = data_path(SCENARIO_EXPECTED)
    with target.open("w", encoding="utf-8") as handle:
        save_reports(handle, [report])
    print(f"wrote {target}")
    print(f"final verdict: {report.final_verdict.label.value}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args != ["regenerate"]:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    return regenerate()


if __name__ == "__main__":
    sys.exit(main())
