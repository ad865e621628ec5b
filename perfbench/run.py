"""Entry point of the pollisim benchmark.

    python3 perfbench/run.py --workload <loop_60|survey_1000|calibrate> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It imports pollisim from the checkout's
own `src/` and refuses to run (exit 2, no result line) when those sources are
missing, rather than pick up an installed copy.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "pollisim", "__init__.py")):
        print(f"perfbench: no pollisim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pollisim

    if os.path.dirname(os.path.dirname(os.path.abspath(pollisim.__file__))) != SRC:
        print(f"perfbench: pollisim was imported from {pollisim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import pollibench

    return pollibench.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
