"""Run one cmcert CLI invocation in this fresh interpreter and record it.

Usage: python3 perfbench/child.py RECORD TRACE ARGS...

RECORD is the JSON file this writes at exit; TRACE is 0 or 1.  With TRACE 1
the layer spans of perfbench/tracer.py are installed after cmcert is
imported, so import time is the same in both modes.  The process exits with
the CLI's own exit code.
"""

import os
import sys
import time


def main() -> int:
    record_path, trace, args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from cmcert import cli
    imported = time.monotonic()

    import json
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    code, error = 0, None
    start = time.perf_counter_ns()
    try:
        if tracer is not None:
            tracer.run_root(cli.main.main, args=args, prog_name="cmcert")
        else:
            cli.main.main(args=args, prog_name="cmcert")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else \
            (0 if exc.code is None else 1)
    except BaseException as exc:
        error = repr(exc)
        raise
    finally:
        work_ns = time.perf_counter_ns() - start
        sys.stdout.flush()
        record = {"imported": imported, "work_s": work_ns / 1e9,
                  "error": error,
                  "cli_file": os.path.abspath(cli.__file__)}
        if tracer is not None:
            record["trace"] = tracer.summary(work_ns)
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
