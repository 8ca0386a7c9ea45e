"""One fresh interpreter of the benchmark: imports sklift, then runs a list
of `sklift` command lines in this process.

    python3 perfbench/worker.py SPEC_JSON RESULT_JSON

SPEC_JSON holds {"ops": [argv, ...], "spans": path or null}.  The worker
stamps the monotonic clock as soon as `sklift` and its command line are
imported (the parent stamped it just before starting this process, so the
difference is the set-up time), then calls `sklift.cli.main(argv)` for
each op, exactly as the `sklift` entry point would, and times each call.
With a spans path, the public entry points are wrapped first and the
recorded spans are written there at the end.  RESULT_JSON receives the
ready stamp, each op's exit code and seconds, the peak resident memory
and the tracing counters.
"""

import time

import sklift
import sklift.cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402  (imported after the ready stamp on purpose)
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def run_op(argv):
    try:
        return sklift.cli.main(argv), None
    except SystemExit as exc:  # argparse usage errors
        return (exc.code if isinstance(exc.code, int) else 2), None
    except Exception:  # a crash is one failed op; later ops still run
        return -1, traceback.format_exc(limit=3)


def main():
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec.get("spans"):
        import tracing

        tracer = tracing.install()
    ops = []
    for argv in spec["ops"]:
        start = time.perf_counter()
        rc, error = run_op(argv)
        ops.append({"rc": rc, "seconds": time.perf_counter() - start, "error": error})
    result = {
        "ready": READY,
        "ops": ops,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "counts": {},
    }
    if tracer is not None:
        tracer.dump(spec["spans"])
        result["counts"] = dict(tracer.counts)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
