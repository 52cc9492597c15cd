"""Capture the golden outputs that traced runs compare against.

    python3 bench/capture_golden.py

Writes the three ``schedule-equicorr`` schedule CSVs and the
``simulate-sweep`` CSV at the golden seed into ``bench/golden/``. Run it
only to re-baseline deliberately: later changes prove bit-identity against
the files as committed.
"""

from __future__ import annotations

import sys

import run
import workloads as wl


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    wl.GOLDEN_DIR.mkdir(exist_ok=True)
    deadline = run.Deadline(run.RUN_LIMIT_S)
    targets = [(c.argv, f"{c.name}.csv") for c in wl.SCHEDULE_CALLS]
    targets.append((wl.SWEEP.argv(wl.GOLDEN_SEED), f"sweep_seed{wl.GOLDEN_SEED}.csv"))
    for argv, name in targets:
        out = wl.GOLDEN_DIR / name
        _, _, code = run.run_child(argv, out, deadline)
        out.with_suffix(".err").unlink(missing_ok=True)
        if code != 0:
            print(f"error: kfdr {' '.join(argv)} exited {code}", file=sys.stderr)
            return 1
        print(f"wrote {out.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
