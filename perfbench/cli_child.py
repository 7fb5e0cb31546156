"""Stand-in for `python -m extremal_cech.cli ARGS...` that reports its cost.

Usage: python cli_child.py TRACE_FILE|- ARGS...

Runs the CLI's `main` in this fresh interpreter, prints what the CLI
prints and exits with its code.  At exit it writes one line to stderr,
`perfbench-vmhwm-kb <kB>`, the process's own peak RSS read after exec.
Given a TRACE_FILE instead of `-`, it also installs the layer trace around
`main` and writes two marshalled objects there: a header (import time and
the time spent serialising the trace) and the spans and counters.  Traced
and untraced runs differ only by the trace.
"""

import marshal
import sys
import time


def report_peak_rss():
    with open("/proc/self/status") as fh:
        kb = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
    print(f"perfbench-vmhwm-kb {kb}", file=sys.stderr)


def traced_main(cli, trace_file, argv, import_s):
    import tracer  # this directory is sys.path[0]

    tr = tracer.Tracer()
    tr.current_op = 0
    restore = tr.install()
    sid = tr.open_span("cli.main")
    tr.stack.append(sid)
    try:
        rc = cli.main(argv)
    finally:
        tr.stack.pop()
        tr.close_span(sid)
        restore()
    sys.stdout.flush()
    t = time.perf_counter()
    payload = marshal.dumps(tr.dump())
    header = {"import_s": import_s, "dump_s": time.perf_counter() - t}
    with open(trace_file, "wb") as fh:
        fh.write(marshal.dumps(header))
        fh.write(payload)
    return rc


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    t = time.perf_counter()
    from extremal_cech import cli
    import_s = time.perf_counter() - t
    try:
        if trace_file == "-":
            return cli.main(argv)
        return traced_main(cli, trace_file, argv, import_s)
    finally:
        sys.stdout.flush()
        report_peak_rss()


if __name__ == "__main__":
    sys.exit(main())
