"""Run the seeded CLI fault-injection guard of ``tests/cli_fuzz.py`` over
more seeds and cases than the test suite does:

    python3 tools/fuzz_cli.py [--seeds 0:10] [--cases 500]

Each seed runs its cases in a fresh temporary directory. Prints each case
that breaks the CLI contract (its command line, its mutated files and what
it breaks) and a summary; exits 1 if any case breaks it.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from cli_fuzz import fuzz  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0:10",
                        help="a range lo:hi of seeds, or one seed (default 0:10)")
    parser.add_argument("--cases", type=int, default=500,
                        help="cases per seed (default 500)")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition(":")
    seeds = range(int(lo), int(hi) if hi else int(lo) + 1)
    start, failures = time.perf_counter(), 0
    for seed in seeds:
        with tempfile.TemporaryDirectory() as root:
            for argv_case, mutated, breaches in fuzz(seed, args.cases, Path(root)):
                failures += 1
                print(f"seed {seed}: {' '.join(argv_case)}")
                for name, text in mutated.items():
                    print(f"  {name}:\n    " + "\n    ".join(text.splitlines()))
                for breach in breaches:
                    print(f"  breach: {breach}")
    print(f"{len(seeds) * args.cases} cases over seeds {seeds.start}..{seeds.stop - 1}: "
          f"{failures} breaching, {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
