"""One benchmark child process: import `negcurve.cli`, note the time, run `main`.

    python3 perfbench/child.py MARK TRACE WORKLOAD [CLI ARGS...]

MARK receives `time.monotonic()` taken right after `negcurve.cli` is
imported; the parent subtracts its spawn time to get the set-up time.
TRACE is `-` for an untraced run, else the file that receives the spans.
With no CLI arguments the child is a set-up probe: it imports and exits.
This is what the installed `negcurve` console script does, so an untraced
child costs what a user's command costs.
"""

import sys
import time


def main():
    mark, trace_path, workload = sys.argv[1:4]
    argv = sys.argv[4:]
    import negcurve.cli

    imported = time.monotonic()
    with open(mark, "w") as fh:
        fh.write(repr(imported))
    if not argv:
        return 0
    if trace_path == "-":
        return negcurve.cli.main(argv)
    from tracer import Tracer  # this file's directory is sys.path[0]

    tracer = Tracer(workload)
    tracer.install()
    try:
        return negcurve.cli.main(argv)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
