"""Run one qtransversal CLI command as a cli-cold op.

Usage: python3 perfbench/child.py OUT TRACE COMMAND INPUT [FLAGS...]

Does what ``python -m qtransversal.cli COMMAND INPUT [FLAGS...]`` does in
a fresh interpreter: prints the CLI's output and exits with its exit code.
With TRACE=0 it samples the host's speed in this process while it runs
(see hostspeed), so that run.py can scale the op to nominal seconds.
The CLI's output is held in memory and written once the sampler has
stopped: CPython drops the rest of a large write to a full pipe when a
signal interrupts it, so the sampler's SIGALRM cut outputs above 64 KiB
short.  Writes to OUT, as JSON, that speed, the seconds spent sampling it, the
in-process seconds of ``cli.main`` and, with TRACE=1, the aggregates of
the span tracer installed around it instead of the sampler.
"""

import io
import json
import sys
import time

from hostspeed import SAMPLER, speed


def main(argv: list[str]) -> int:
    out, trace, cli_argv = argv[0], argv[1] == "1", argv[2:]
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    else:
        SAMPLER.start()

    import qtransversal.cli

    if tracer is not None:
        tracer.install()
    stdout, sys.stdout = sys.stdout, io.StringIO()
    start = time.perf_counter()
    try:
        code = qtransversal.cli.main(cli_argv)
    finally:
        main_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        SAMPLER.stop()
        output, sys.stdout = sys.stdout.getvalue(), stdout
        sys.stdout.write(output)
        sys.stdout.flush()
    doc = tracer.to_jsonable() if tracer is not None else {}
    doc.update(
        speed=speed(SAMPLER.samples) if SAMPLER.samples else 1.0,
        kernel_s=SAMPLER.spent_s,
        main_s=main_s,
    )
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
