"""Layered benchmark for extremal-cech.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-3d --seed 1 --seconds 40 --trace 0

Workloads: pipeline-3d, crosscheck and diagram-queries; the last is not in
BENCHMARK.json (see README.md here).
`--trace 0` times the ops with no instrumentation, scales the times by
a low percentile of a package-free reference loop timed between the steps
(see REF_S) and reports the end-to-end metrics; `--trace 1` alternates untraced ops with ops under the
layer trace and reports the per-layer metrics.  `--smoke`
shrinks every workload to a size that runs in seconds.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The package is imported from src/ of the
checkout this script sits in; without it the script exits with code 2.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# One client on one CPU.  The two vCPUs of a shared host are slowed by other
# tenants independently of each other, so the reference loop (below) only
# tracks the ops when both run on the same CPU; CLI children inherit this.
NPROC = len(os.sched_getaffinity(0))
CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as trace_mod  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_ROUNDS = 3
# Other tenants of a shared host slow a CPU down by up to 1.8x, for a
# fraction of a second up to several minutes, and they slow the reference
# loop and the package's code alike (README.md has the figures).  Listed
# times are wall times scaled by REF_S over the 10th percentile of the
# run's reference loops: REF_S is the loop's time on the quiet host the
# baseline was taken on, so they read as seconds on that host.
REF_S = 0.125
REF_PERCENTILE = 10.0
REF_ITERATIONS = 2_000_000
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)
TAIL_BEYOND = 10
TAIL_FALLBACK = 75.0
COUNT_NAMES = ("complexgen.simplices", "homology.columns", "homology.pairs",
               "construct.delta_attempts", "oracle.subsets", "verify.claims",
               "verify.claims_failed")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    return p.parse_args(argv)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# run metadata


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "extremal_cech").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx"):
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, read from .git without running git; a plain
    export has none, and the source digest identifies the code instead."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def run_metadata(args):
    import numpy
    from extremal_cech import homology

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "reduction_kernel": "compiled" if homology.HAVE_COMPILED else "pure",
        "EXTREMAL_CECH_THREADS": os.environ.get("EXTREMAL_CECH_THREADS"),
        "EXTREMAL_CECH_NO_EXT": os.environ.get("EXTREMAL_CECH_NO_EXT"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": NPROC, "cpu": CPU, "commit": git_commit(),
        "source_digest": source_digest(),
    }


# ---------------------------------------------------------------------------
# timing


def step(fn):
    """Run one op or set-up round: (ok, seconds).  An exception counts as
    an incorrect result, and measuring goes on."""
    t = time.perf_counter()
    try:
        ok = bool(fn())
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    return ok, time.perf_counter() - t


def set_up_round(workload):
    workload.setup()
    return workload.op()


def reference_s():
    """Wall seconds of the reference loop: fixed pure-Python integer work
    that no change to the package can touch."""
    t = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += (i * 7) % 13
    return time.perf_counter() - t


def timed_run(workload, seconds):
    """Untraced run: set-up rounds, then the closed loop for `seconds`, with
    the reference loop timed before the first step and after every step.
    Returns (correct, failed ops, round seconds, op seconds, reference
    seconds)."""
    correct, rounds, ops, refs, failed = True, [], [], [reference_s()], 0
    for _ in range(SETUP_ROUNDS):
        ok, dt = step(lambda: set_up_round(workload))
        correct &= ok
        rounds.append(dt)
        refs.append(reference_s())
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ok, dt = step(workload.op)
        failed += not ok
        ops.append(dt)
        refs.append(reference_s())
    return correct, failed, rounds, ops, refs


def traced_run(workload, seconds, tracer):
    """One set-up round, then ops alternating between untraced and traced
    for `seconds`, so a drift in the host's speed falls on both alike.
    Returns (correct, failed ops, untraced op seconds, traced op seconds)."""
    correct, _ = step(lambda: set_up_round(workload))
    plain, traced, failed = [], [], 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        if len(plain) > len(traced):
            restore = tracer.install()
            with tracer.op(len(traced)):
                ok, dt = step(lambda: workload.op(tracer))
            restore()
            traced.append(dt)
        else:
            ok, dt = step(workload.op)
            plain.append(dt)
        failed += not ok
    return correct, failed, plain, traced


def nearest_rank(values, p):
    """The p-th percentile of `values` by nearest rank."""
    xs = sorted(values)
    return xs[max(1, math.ceil(p / 100.0 * len(xs))) - 1]


def tail(durations):
    """(percentile, value, samples beyond): the highest ladder percentile
    with at least TAIL_BEYOND samples above it, by nearest rank.  A run too
    short for p90 falls back to p75: the maximum of a few ops follows the
    host's bursts, not the program."""
    n = len(durations)
    for p in TAIL_LADDER + (TAIL_FALLBACK,):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_BEYOND or p == TAIL_FALLBACK:
            return p, nearest_rank(durations, p), n - rank


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tr, tables, walls, import_s):
    """Per-op per-layer metrics: medians over ops for times, the per-op value
    for counts.  Returns (metrics, per-op count dicts)."""
    ops = sorted(walls)
    spans = tr.spans
    attempts = {op: 0 for op in ops}
    for name, _, _, parent, op in spans:
        if (name == "complexgen.build_filtration" and parent >= 0 and op in attempts
                and spans[parent][0] == "construct.build_validated"):
            attempts[op] += 1

    def per_op_values(op):
        rows = tables[op]
        counters = tr.counters.get(op, {})

        def calls(name):
            return rows[name][0] if name in rows else 0

        def self_s(*names):
            return sum(rows[n][1] for n in names if n in rows)

        def matching(pred):
            return [n for n in rows if pred(n)]

        m = {}
        invocations = counters.get("cli.invocations", 0)
        m["cli.import_s"] = (counters["cli.import_s"] / invocations if invocations
                             else import_s)
        m["cli.process_s"] = self_s("cli.process") / invocations if invocations else 0.0
        m["construct.build_validated.s"] = (rows["construct.build_validated"][2]
                                            if "construct.build_validated" in rows else 0.0)
        m["construct.delta_attempts"] = attempts[op]
        m["construct.delta_useful_ratio"] = (calls("construct.build_validated") / attempts[op]
                                             if attempts[op] else 0.0)
        simplices = counters.get("complexgen.simplices", 0)
        m["complexgen.simplices"] = simplices
        for fn in ("enumerate", "build_filtration", "radius_value", "criticality_check",
                   "pick_thresholds"):
            m[f"complexgen.{fn}.self_s"] = self_s(f"complexgen.{fn}")
        m["complexgen.radius_value.calls"] = calls("complexgen.radius_value")
        for fn in trace_mod.GEOMETRY_FUNCS:
            names = matching(lambda n, fn=fn: n.startswith(f"geometry.{fn}@"))
            m[f"geometry.{fn}.calls"] = sum(calls(n) for n in names)
            m[f"geometry.{fn}.self_s"] = self_s(*names)
        for site in trace_mod.GEOMETRY_SITES:
            fn, caller = site.split("@")
            m[f"geometry.{fn}.{caller}.calls"] = calls(f"geometry.{site}")
            m[f"geometry.{fn}.{caller}.self_s"] = self_s(f"geometry.{site}")
        spheres = (calls("geometry.min_enclosing_ball@complexgen")
                   + calls("geometry.circumsphere@complexgen"))
        m["geometry.spheres_per_simplex"] = spheres / simplices if simplices else 0.0
        m["geometry.emptiness_per_simplex"] = (calls("geometry.is_empty_sphere@complexgen")
                                               / simplices if simplices else 0.0)
        for fn in ("reduce", "reduce_columns", "betti_profile", "betti_at",
                   "betti_of_subcomplex", "save_diagram"):
            m[f"homology.{fn}.self_s"] = self_s(f"homology.{fn}")
        m["homology.reduce.calls"] = calls("homology.reduce")
        m["homology.columns"] = counters.get("homology.columns", 0)
        m["homology.pairs"] = counters.get("homology.pairs", 0)
        m["homology.rss_growth_mb"] = counters.get("homology.rss_growth_mb", 0.0)
        for fn in ("cech", "delaunay_face_test"):
            m[f"oracle.{fn}.calls"] = calls(f"oracle.{fn}")
            m[f"oracle.{fn}.self_s"] = self_s(f"oracle.{fn}")
        face_tests = calls("oracle.delaunay_face_test")
        m["oracle.subsets"] = face_tests + calls("geometry.min_enclosing_ball@oracle")
        m["oracle.face_accept_ratio"] = (counters.get("oracle.face_accepts", 0) / face_tests
                                         if face_tests else 0.0)
        m["lp.solve_lp_max.calls"] = calls("lp.solve_lp_max")
        m["lp.solve_lp_max.self_s"] = self_s("lp.solve_lp_max")
        m["verify.claims"] = counters.get("verify.claims", 0)
        m["verify.claims_failed"] = counters.get("verify.claims_failed", 0)
        m["verify.self_s"] = self_s(*matching(lambda n: n.startswith("verify.")))
        wall = walls[op]
        by_layer = dict.fromkeys(trace_mod.LAYERS, 0.0)
        for name, row in rows.items():
            by_layer[trace_mod.layer_of(name)] += row[1]
        for layer, s in by_layer.items():
            m[f"layer.{layer}.frac"] = s / wall
        m["layer.geometry_oracle.frac"] = self_s("geometry.min_enclosing_ball@oracle") / wall
        m["trace.attributed_frac"] = 1.0 - by_layer["bench"] / wall
        return m

    per_op = [per_op_values(op) for op in ops]
    metrics = {}
    for name in per_op[0]:
        values = [m[name] for m in per_op]
        if is_count(name):
            metrics[name] = values[0]
        elif name == "homology.rss_growth_mb":
            metrics[name] = max(values)
        else:
            metrics[name] = statistics.median(values)
    counts = [{k: v for k, v in m.items() if is_count(k)} for m in per_op]
    return metrics, counts


def is_count(name):
    return name.endswith(".calls") or name in COUNT_NAMES


def design_split(workload_name, f):
    """The layer split each workload was chosen for, as (claim, share, holds)."""
    if workload_name == "pipeline-3d":
        gc = f["layer.geometry.frac"] + f["layer.complexgen.frac"]
        return [("geometry+complexgen >= 0.90", gc, gc >= 0.90),
                ("homology <= 0.05", f["layer.homology.frac"], f["layer.homology.frac"] <= 0.05)]
    if workload_name == "diagram-queries":
        return [("homology >= 0.95", f["layer.homology.frac"], f["layer.homology.frac"] >= 0.95)]
    share = f["layer.geometry_oracle.frac"] + f["layer.oracle.frac"] + f["layer.lp.frac"]
    return [("geometry@oracle+oracle+lp >= 0.40", share, share >= 0.40)]


def check_determinism(key, counts):
    """Counts must repeat across the ops of a run and across traced runs of
    the same source, workload and (where it matters) seed.  Returns drift
    messages; the first run under a key records it."""
    drift = [f"op {i}: {k} = {v} vs {counts[0][k]}"
             for i, c in enumerate(counts[1:], 1) for k, v in c.items() if v != counts[0][k]]
    record_file = OUT_DIR / "counts.json"
    records = json.loads(record_file.read_text()) if record_file.is_file() else {}
    previous = records.get(key)
    if previous is None:
        records[key] = counts[0]
        record_file.write_text(json.dumps(records, indent=1, sort_keys=True))
    else:
        drift += [f"{k} = {counts[0].get(k)} vs {v} in an earlier run"
                  for k, v in previous.items() if counts[0].get(k) != v]
    return drift


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "extremal_cech" / "__init__.py").is_file():
        fail(f"no package source at {SRC}; run from a full checkout")
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        fail("BENCHMARK.json is missing")
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import extremal_cech  # noqa: F401
    import workloads
    import_s = time.perf_counter() - t
    if Path(extremal_cech.__file__).resolve().parent != SRC / "extremal_cech":
        fail(f"imported extremal_cech from {extremal_cech.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    started_s = time.perf_counter() - T0

    if args.trace and int(os.environ.get("EXTREMAL_CECH_THREADS") or 1) > 1:
        # The span stack is shared: spans opened on complexgen's worker
        # threads would get the wrong parents and the self times would lie.
        fail("--trace 1 needs EXTREMAL_CECH_THREADS unset or 1")
    spec = json.loads(spec_file.read_text())
    OUT_DIR.mkdir(exist_ok=True)
    meta = run_metadata(args)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, OUT_DIR)
    tag = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"

    lines = []
    if args.trace:
        tr = trace_mod.Tracer()
        correct, failed, untraced, traced = traced_run(wl, args.seconds, tr)
        attempted = len(untraced) + len(traced)
        tables, walls = trace_mod.per_op(tr.spans)
        values, counts = layer_metrics(tr, tables, walls, import_s)
        values["trace.overhead_frac"] = (statistics.median(traced)
                                         / statistics.median(untraced) - 1.0)
        key = "/".join([meta["source_digest"], args.workload]
                       + ([str(args.seed)] if wl.seeded else []) + (["smoke"] if args.smoke else []))
        drift = check_determinism(key, counts)
        correct &= not drift
        for msg in drift:
            lines.append(f"DRIFT {msg}")
        for claim, share, holds in design_split(args.workload, values):
            lines.append(f"split {claim}: {share:.3f} {'holds' if holds else 'MISSES'}")
        table = trace_mod.self_table(tables, walls)
        (OUT_DIR / f"trace-{tag}.json").write_text(json.dumps(
            {"meta": meta, "self_table": table, **tr.dump()}))
        wanted = spec["per_layer"]
        samples = {"untraced": untraced, "traced": traced}
        n, n_by_name = len(traced), {}
    else:
        correct, failed, rounds, ops, refs = timed_run(wl, args.seconds)
        attempted = len(ops)
        # Noise only ever slows a step down, so the fastest op is the least
        # disturbed one.  The loop is short, so its very fastest run can fall
        # in a lull that no op ever saw; a low percentile is steadier.
        scale = REF_S / nearest_rank(refs, REF_PERCENTILE)
        values = {
            "setup_s": (started_s + statistics.median(rounds)) * scale,
            "op_s.min": min(ops) * scale,
            "items_per_s": wl.items_per_op / (min(ops) * scale),
            "peak_rss_mb": wl.peak_rss_mb(),
        }
        pct, tail_s, beyond = tail(ops)
        lines.append(f"op_s.p50 {statistics.median(ops) * scale:.6g} s, "
                     f"op_s.tail {tail_s * scale:.6g} s (p{pct:g} of {attempted} ops, "
                     f"{beyond} beyond it), at reference speed")
        lines.append(f"wall op_s.min {min(ops):.6g} s, op_s.p50 {statistics.median(ops):.6g} s; "
                     f"reference loop p{REF_PERCENTILE:g} {nearest_rank(refs, REF_PERCENTILE):.6g} s "
                     f"over {len(refs)} runs (REF_S {REF_S} s)")
        lines.append(f"items_per_s counts {wl.items} ({wl.items_per_op} per op)")
        lines.append(f"fail_frac {failed / attempted:.4f} ({failed} of {attempted})")
        wanted = spec["end_to_end"]
        samples = {"started_s": started_s, "setup_rounds": rounds, "ops": ops,
                   "reference_s": refs}
        n, n_by_name = attempted, {"setup_s": len(rounds)}

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": bool(correct) and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (OUT_DIR / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(
        {"meta": meta, "result": result, "samples": samples}, indent=1))

    for m in wanted:
        count = n_by_name.get(m["name"], n)
        print(f"{m['name']:<46} {values[m['name']]:>14.6g} {m['unit']:<6} n={count}")
    for line in lines:
        print(line)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
