"""The benchmark's three workloads.

Each is a closed loop with one client: the next op starts when the previous
one has returned.  A workload builds its state in `setup()`, runs one op in
`op(tracer)` and returns whether the op's outputs were correct.  Ops reach
the package only through its public functions and its CLI.  A set-up round
is `setup()` plus one warm-up op.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

from extremal_cech import construct, homology
from extremal_cech.complexgen import threshold_after
from extremal_cech.geometry import DEFAULT_TOL

CHILD_TIMEOUT_S = 150
CLI_CHILD = Path(__file__).with_name("cli_child.py")


def census(n):
    """Simplices per dimension of the 3d family at n (vertices to tetrahedra)."""
    return [2 * n + 2, 2 * n + (n + 1) ** 2, 2 * n * (n + 1), n ** 2]


def own_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dim_counts(fc):
    counts = [0] * 4
    for _, cs in fc.entries:
        counts[cs.dim] += 1
    return counts


class Pipeline3d:
    """Construct, validate, reduce and query the 3d family at n = 30."""

    items = "simplices"
    seeded = False

    def __init__(self, seed, smoke, out_dir):
        self.n = 4 if smoke else 30
        self.items_per_op = sum(census(self.n))

    def setup(self):
        pass

    peak_rss_mb = staticmethod(own_peak_rss_mb)

    def op(self, tracer=None):
        n = self.n
        ps, fc, thresholds = construct.build_validated("3d", k=1, n=n, delta="auto")
        pd = homology.reduce(fc)
        eps = DEFAULT_TOL.abs_eps
        b1 = homology.betti_at(pd, 1, threshold_after(thresholds, (1, -1)), eps=eps)
        b2 = homology.betti_at(pd, 2, threshold_after(thresholds, (1, 0)), eps=eps)
        return b1 == (n + 1) ** 2 - 1 and b2 == n ** 2 and dim_counts(fc) == census(n)


class DiagramQueries:
    """Queries against one prebuilt 3d n = 60 filtration: reduce, Betti
    profiles, seed-drawn sublevel Betti numbers answered two ways, and the
    diagram file."""

    items = "simplices"
    seeded = True
    n_radii = 8

    def __init__(self, seed, smoke, out_dir):
        self.n = 4 if smoke else 60
        self.seed = seed
        self.path = Path(out_dir) / f"diagram-{os.getpid()}.csv"
        self.digest = None

    def setup(self):
        _, self.fc, _ = construct.build_validated("3d", k=1, n=self.n, delta="auto")
        self.items_per_op = len(self.fc)
        # Gap midpoints between consecutive distinct values: a value change
        # of a few ulp cannot move a simplex across such a radius.  One gap
        # is drawn uniformly by index from each of n_radii equal strata of
        # the gaps, so the sublevel sizes, and with them the op's cost,
        # hardly depend on the seed.
        values = sorted({value for value, _ in self.fc.entries})
        rng = random.Random(self.seed)
        gaps, k = len(values) - 1, self.n_radii
        picks = [rng.randrange(j * gaps // k, max((j + 1) * gaps // k, j * gaps // k + 1))
                 for j in range(k)]
        self.radii = [0.5 * (values[i] + values[i + 1]) for i in picks]
        self.pmax = self.fc.max_dim()

    peak_rss_mb = staticmethod(own_peak_rss_mb)

    def op(self, tracer=None):
        fc = self.fc
        pd = homology.reduce(fc)
        profiles = [homology.betti_profile(pd, p) for p in range(self.pmax + 1)]
        ok = max(value for _, value in profiles[2]) == self.n ** 2
        for r in self.radii:
            direct = [homology.betti_at(pd, p, r) for p in range(self.pmax + 1)]
            ok &= direct == homology.betti_of_subcomplex(fc, r)
        homology.save_diagram(pd, self.path)
        digest = hashlib.sha256(self.path.read_bytes()).hexdigest()
        self.path.unlink()
        if self.digest is None:
            self.digest = digest
        return ok and digest == self.digest


class Crosscheck:
    """Two fresh-interpreter CLI runs: the claim suite, then the oracle."""

    items = "claims"
    seeded = False

    def __init__(self, seed, smoke, out_dir):
        self.root = Path(__file__).resolve().parents[1]
        self.out_dir = Path(out_dir)
        if smoke:
            self.runs = [(["verify", "--theorem", "3.1", "--n", "2"], 8, 0)]
        else:
            # (argv, claims the run must report, oracle lines that must PASS)
            self.runs = [(["verify", "--all"], 53, 0),
                         (["oracle", "--kind", "even", "--k", "2", "--n", "5"], 0, 5)]
        self.items_per_op = sum(c + o for _, c, o in self.runs)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"),
                        TMPDIR=str(self.out_dir))
        self.child_peak_kb = 0

    def setup(self):
        pass

    def peak_rss_mb(self):
        """The largest peak RSS of an untraced CLI run."""
        return self.child_peak_kb / 1024.0

    def op(self, tracer=None):
        ok = True
        for argv, claims, oracle_lines in self.runs:
            if tracer is None:
                proc = self._run("-", argv)
            else:
                proc = self._run_traced(tracer, argv)
            # A child's ru_maxrss also counts the parent's pages it held
            # between fork and exec, so the child reports its own VmHWM.
            peak = re.search(r"^perfbench-vmhwm-kb (\d+)$", proc.stderr, re.M)
            ok &= peak is not None
            if tracer is None and peak:
                self.child_peak_kb = max(self.child_peak_kb, int(peak.group(1)))
            ok &= proc.returncode == 0 and self._output_ok(proc.stdout, claims, oracle_lines)
        return ok

    def _run(self, trace_file, argv):
        """`python -m extremal_cech.cli ARGV` in a fresh interpreter, through
        cli_child.py, which also reports the child's peak RSS."""
        return subprocess.run([sys.executable, str(CLI_CHILD), str(trace_file), *argv],
                              cwd=self.root, env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)

    def _run_traced(self, tracer, argv):
        trace_file = self.out_dir / f"child-{os.getpid()}.marshal"
        sid = tracer.open_span("cli.process")
        proc = self._run(trace_file, argv)
        tracer.close_span(sid)
        with open(trace_file, "rb") as fh:
            header = marshal.load(fh)
            data = marshal.load(fh)
        trace_file.unlink()
        # the child's trace serialisation is tracing cost, not CLI cost
        tracer.spans[sid][2] -= header["dump_s"]
        tracer.merge(data["spans"], data["counters"].get("0", {}), parent=sid)
        tracer.counters[tracer.current_op]["cli.import_s"] += header["import_s"]
        tracer.counters[tracer.current_op]["cli.invocations"] += 1
        return proc

    @staticmethod
    def _output_ok(stdout, claims, oracle_lines):
        if claims and not re.search(rf"^{claims} claims, 0 failures$", stdout, re.M):
            return False
        if oracle_lines:
            lines = [ln for ln in stdout.splitlines() if " -> " in ln]
            return len(lines) == oracle_lines and all(ln.endswith("PASS") for ln in lines)
        return True


WORKLOADS = {
    "pipeline-3d": Pipeline3d,
    "diagram-queries": DiagramQueries,
    "crosscheck": Crosscheck,
}

