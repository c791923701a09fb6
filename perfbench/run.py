"""End-to-end and per-layer benchmark of threedom.

    python3 perfbench/run.py --workload large-invariants --seed 1 --seconds 50 --trace 0

The program is imported from the `src/` directory of the checkout this file
sits in, never from an installed copy.  The benchmark itself is `bench.py`.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "threedom" / "__init__.py").is_file():
        print(f"error: no threedom sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import threedom
    if Path(threedom.__file__).resolve().parent != SRC / "threedom":
        print(f"error: imported threedom from {threedom.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    from perfbench import bench
    sys.exit(bench.main(sys.argv[1:]))
