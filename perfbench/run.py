"""Entry point of the cliplta benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It caps the BLAS thread count at the number of
usable CPUs before numpy loads, imports cliplta from this checkout's ``src/``
and hands over to ``bench.main``. Without ``src/cliplta`` it exits with
code 2 and prints no result.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            requested = int(os.environ.get(var, nproc))
        except ValueError:
            requested = nproc
        os.environ[var] = str(min(max(requested, 1), nproc))


def main() -> int:
    src = ROOT / "src"
    if not (src / "cliplta" / "__init__.py").is_file():
        print(f"perfbench: no cliplta sources under {src}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(src))
    import cliplta

    if Path(cliplta.__file__).resolve().parent != (src / "cliplta").resolve():
        print(f"perfbench: cliplta imported from {cliplta.__file__}, not {src}", file=sys.stderr)
        return 2
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
