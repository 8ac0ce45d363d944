"""Run one kerrsense CLI invocation in this fresh process and report its cost.

    python3 perfbench/invoke.py RESULT SRC TRACE WORKLOAD INVOCATION [CLI ARGS...]

The parent puts its time.monotonic() at spawn into PERFBENCH_SPAWN; set-up is
the time from then until kerrsense.cli and its imports are loaded.  With no
CLI arguments the process only measures set-up.  With TRACE = 1 the spans of
the call are recorded (see spans.py) and written next to RESULT.  RESULT gets
one JSON object: setup_s, wall_s (inside cli.main until every output file is
written), cpu_s and peak RSS of this process, the exit code, the layer
metrics when traced, and the software versions.
"""

import json
import os
import resource
import sys
import time
import traceback


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    spawn = float(os.environ["PERFBENCH_SPAWN"])
    result_path, src, trace, workload, invocation = sys.argv[1:6]
    cli_args = sys.argv[6:]
    sys.path.insert(0, src)
    import kerrsense.cli

    setup_s = time.monotonic() - spawn
    record = {"setup_s": setup_s}
    if cli_args:
        tracer = None
        if trace == "1":
            import spans

            tracer = spans.Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = kerrsense.cli.main(cli_args)
            else:
                rc = tracer.call(spans.ROOT, kerrsense.cli.main, (cli_args,))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # an uncaught program error fails this operation
            traceback.print_exc()
            rc = -1
        record["wall_s"] = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        record.update(
            rc=rc,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
        )
        if tracer is not None:
            record["layers"] = tracer.summary()
            tracer.write_spans(result_path + ".spans.jsonl", workload, invocation)
    record["versions"] = _versions()
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
