"""Rewrite tests/golden/ from the current tree.

    python tests/make_golden.py

Each entry of test_cli._DETERMINISM_RUNS is run once at --seed 0 on one FFT
thread, and its CSV and JSON are written as tests/golden/<run>.csv and
.json, which test_every_command_is_deterministic compares byte for byte.
Run it only when a change moves an output on purpose; the diff of the
rewritten files then shows what moved.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import test_cli  # noqa: E402  (after the path to the package)


def main() -> None:
    test_cli.GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for run in sorted(test_cli._DETERMINISM_RUNS):
            where = Path(tmp) / run
            where.mkdir()
            code, outputs = test_cli._seed0_outputs(where, run)
            for suffix, data in outputs.items():
                (test_cli.GOLDEN / f"{run}.{suffix}").write_bytes(data)
            print(f"{run}: exit {code}")


if __name__ == "__main__":
    main()
