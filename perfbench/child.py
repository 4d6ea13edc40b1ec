"""One sample in a fresh interpreter; run by run.py, not by hand.

Reads {"workload", "inputs", "trace", "spans_path"} as JSON on stdin and
prints one JSON line: the timed wall seconds, the peak RSS, the answers,
per-query milliseconds and, when traced, the per-layer summary.
"""

import json
import os
import resource
import sys

import workloads


def main():
    request = json.load(sys.stdin)
    import trunco
    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(trunco.__file__).startswith(src + os.sep):
        raise SystemExit("trunco imported from %s, not from %s"
                         % (trunco.__file__, src))
    tracer = None
    if request["trace"]:
        import tracer as tracing
        tracer = tracing.install()
    wall, answers, query_ms = workloads.run_work(request["workload"],
                                                 request["inputs"])
    out = {"wall_s": wall,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "answers": answers, "query_ms": query_ms}
    if tracer is not None:
        out["layers"], out["top_s"] = tracer.summary()
        if request["spans_path"]:
            tracer.dump(request["spans_path"])
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
