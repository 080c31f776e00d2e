"""Write one workload's problem files with ``kaczpen generate``.

    python3 benchmarks/make_inputs.py <workload> <seed> <directory>

run.py starts this script in a fresh interpreter several times and takes
the mean wall time as the benchmark's set-up time: interpreter start,
``import kaczpen`` and writing the problem files.
"""

import contextlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    name, seed, directory = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from kaczpen.cli import main as kaczpen_main

    import workloads

    for gen_argv in workloads.generate_argvs(workloads.build(name, seed), directory):
        with contextlib.redirect_stdout(io.StringIO()):
            code = kaczpen_main(gen_argv)
        if code != 0:
            print(f"generate failed with exit code {code}: {gen_argv}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
