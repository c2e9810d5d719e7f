"""Write the reference certificate digests of the default seed.

    python3 perfbench/make_reference.py [workload ...]

Runs every op of each workload's default-seed list once, refuses to write
if any op fails its checks, and stores one digest per op in
perfbench/reference/<workload>.json.  Rerun it only when a change is meant
to alter certificate bytes, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main(names: list[str]) -> int:
    if not (run.SRC / "folnerlab" / "cli.py").is_file():
        print(f"error: no folnerlab sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in names or run.workloads.WORKLOADS:
        cli, op_list = run.Setup(workload, run.DEFAULT_SEED).round()
        loop = run.Loop(cli, op_list, run.ROOT / ".bench_tmp" / f"reference-{workload}")
        try:
            loop.for_count(len(op_list))
        finally:
            shutil.rmtree(loop.work_dir, ignore_errors=True)
        if loop.failures:
            for index, reason in loop.failures[:20]:
                print(f"{workload} op {index}: {reason}", file=sys.stderr)
            return 1
        path = run.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps({"seed": run.DEFAULT_SEED, "digests": loop.digests}, indent=0) + "\n")
        print(f"{workload}: {len(loop.digests)} digests -> {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
