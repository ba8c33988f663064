"""Write ``golden.json`` from the program's outputs on seed 0.

    python3 perfbench/make_golden.py

The golden values are the reference every benchmark run is checked
against.  Regenerate them only in a change that means to alter what the
program prints, and say so in that change.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from camina.cli import run_cli  # noqa: E402

from checks import (  # noqa: E402
    GOLDEN_PATH,
    add_summaries,
    chartab_signature,
    lattice_signature,
    reports_digest,
    sweep_summary,
)
from inputs import write_inputs  # noqa: E402


def _run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run_cli(argv)
    if rc != 0:
        raise SystemExit(f"camina {' '.join(argv)} exited with {rc}")
    return buf.getvalue()


def main() -> None:
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        summaries, outs = [], []
        for i, (_, path) in enumerate(write_inputs("sweep", 0, work / "sweep")):
            outs.append(work / f"reports-{i:02d}.jsonl")
            argv = ["verify", "--catalog", str(path.parent), "--max-order", "1000", "--claims", "all"]
            summaries.append(sweep_summary(_run([*argv, "--out", str(outs[-1])])))
        golden["sweep"] = {
            "summary": add_summaries(summaries),
            "reports_digest": reports_digest([out for out in outs if out.exists()]),
        }
        golden["chartab"] = {
            label: chartab_signature(_run(["--cache-dir", str(work / f"cache-{i}"), "chartab", "--group", str(path)]))
            for i, (label, path) in enumerate(write_inputs("chartab", 0, work / "chartab"))
        }
        golden["lattice"] = {
            label: lattice_signature(_run(["subgroups", "--group", str(path)]))
            for label, path in write_inputs("lattice", 0, work / "lattice")
        }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
