"""gpdcov benchmark: seeded CLI jobs, verified verdicts, a per-layer trace.

    python3 perfbench/run.py --workload lattice --seed 7 --seconds 30 --trace 0

Run it from the root of a checkout; it imports gpdcov from ``src/``.  One
client works in a closed loop in this one process, with no threads: a job
is one call of ``gpdcov.cli.main(argv)`` (in ``selftest``, one full
battery), and the next job starts when the last has returned and its
output has been checked against known answers that do not come from
gpdcov (``answers.py``).  A job fails on a wrong verdict, an exit code
other than 0, an exception, or stdout that differs from an earlier run of
the same job with the same seed.

A run is made of whole rounds; a round runs every job of the workload
once, in an order the seed shuffles.  Rounds continue while the next one
is expected to end within ``--seconds``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of
``tracing.py``, per traced round, and ``trace.overhead_share``.  Either
way the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import namedtuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, HERE)

import answers  # noqa: E402
import inputs  # noqa: E402
from tracing import Tracer  # noqa: E402

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 20

Step = namedtuple("Step", "label argv check save")

# (group, k): the base I_k × G, or the group itself when k is 1.
LATTICE_BASES = (("C8", 1), ("C2xC4", 1), ("D4", 1), ("C12", 1), ("A4", 1),
                 ("S3", 2))
UNIVERSAL_BASES = (("C16", 1), ("C24", 1), ("S4", 1), ("C8", 3), ("S3", 4))
TOPOS_GROUPS = ("C4", "D4", "C2xC4", "A4")


def _base_name(group, k):
    return group if k == 1 else f"I{k}x{group}"


def _write_base(work, group, k, rng):
    g = inputs.PermGroup(group)
    doc = (inputs.group_doc(g, rng) if k == 1
           else inputs.product_doc(k, g, rng))
    return inputs.write_doc(work, f"base-{_base_name(group, k)}.json", doc)


def lattice_jobs(rng, work):
    return [[Step(f"lattice {_base_name(group, k)}",
                  ["lattice", _write_base(work, group, k, rng)],
                  answers.lattice_check(group), None)]
            for group, k in LATTICE_BASES]


def universal_jobs(rng, work):
    pipelines = []
    for group, k in UNIVERSAL_BASES:
        name = _base_name(group, k)
        base = _write_base(work, group, k, rng)
        cover = os.path.join(work, f"universal-{name}.json")
        pipelines.append([
            Step(f"universal {name}", ["universal", base],
                 answers.universal_check(group, k), cover),
            Step(f"cov-group {name}", ["cov-group", cover],
                 answers.cov_group_check(group), None),
            Step(f"regular {name}", ["regular", cover],
                 answers.regular_check(), None),
        ])
    return pipelines


def topos_jobs(rng, work):
    pipelines = []
    for group in TOPOS_GROUPS:
        g = inputs.PermGroup(group)
        base = _write_base(work, group, 1, rng)
        orbit, cover = {}, {}
        for orb in g.orbits():
            fold = len(orb)
            orbit[fold] = orb
            cover[fold] = inputs.write_doc(
                work, f"cover-{group}-{fold}.json",
                inputs.action_cover_doc(g, orb, os.path.basename(base), rng))
        s, b = min(cover), max(cover)
        for p, q in ((b, s), (s, b), (b, b)):
            pipelines.append([Step(
                f"expo {group} {p}^{q}", ["expo", cover[p], cover[q]],
                answers.expo_check(group, p, q), None)])
        for r, p, q in ((s, s, s), (s, b, b), (b, b, s)):
            pipelines.append([Step(
                f"adjunction {group} {r},{p},{q}",
                ["adjunction", cover[r], cover[p], cover[q]],
                answers.adjunction_check(g, orbit[r], orbit[p], orbit[q]),
                None)])
        for fold in (s, b):
            presheaf = os.path.join(work, f"presheaf-{group}-{fold}.json")
            pipelines.append([
                Step(f"to-presheaf {group} {fold}",
                     ["to-presheaf", cover[fold]],
                     answers.presheaf_check(fold), presheaf),
                Step(f"from-presheaf {group} {fold}",
                     ["from-presheaf", presheaf],
                     answers.groupoid_size_check(fold, fold * g.order),
                     None),
            ])
        classifier = os.path.join(work, f"omega-{group}.json")
        pipelines.append([
            Step(f"omega {group}", ["omega", base],
                 answers.omega_check(group), classifier),
            Step(f"subobjects {group}", ["subobjects", classifier],
                 answers.subobjects_check(), None),
        ])
    return pipelines


def selftest_jobs(rng, work):
    return [[Step("selftest", ["selftest"], answers.selftest_check, None)]]


WORKLOADS = {
    "lattice": lattice_jobs,
    "universal": universal_jobs,
    "selftest": selftest_jobs,
    "topos": topos_jobs,
}


def set_up(workload, seed, work):
    """Import gpdcov afresh and write the workload's input documents."""
    for name in [n for n in sys.modules
                 if n == "gpdcov" or n.startswith("gpdcov.")]:
        del sys.modules[name]
    cli = importlib.import_module("gpdcov.cli")
    importlib.import_module("gpdcov.selftest")
    return cli, WORKLOADS[workload](random.Random(seed), work)


class Runner:
    """Runs rounds of jobs, checks each output and keeps the timings."""

    def __init__(self, cli, pipelines, seed, hash_file):
        self.cli = cli
        self.pipelines = pipelines
        self.order_rng = random.Random(seed)
        self.hash_file = hash_file
        self.hashes = {}
        if os.path.exists(hash_file):
            with open(hash_file, encoding="utf-8") as fh:
                self.hashes = json.load(fh)
        self.attempted = 0
        self.failures = []
        self.job_id = 0

    def round(self, tracer=None):
        """One pass over every pipeline; returns the verified job times."""
        order = list(range(len(self.pipelines)))
        self.order_rng.shuffle(order)
        times = []
        for i in order:
            for step in self.pipelines[i]:
                elapsed, error = self.job(step, tracer)
                if error is None:
                    times.append((step.label, elapsed))
                else:
                    self.failures.append(f"{step.label}: {error}")
                    break  # later steps of a pipeline need this output
        return times

    def job(self, step, tracer):
        """Run and check one job: (seconds, None), or (None, error)."""
        self.attempted += 1
        self.job_id += 1
        if tracer is not None:
            tracer.job = self.job_id
        if step.argv[0] == "selftest":
            # A fresh CLI process builds the fixtures; so does each battery.
            selftest = sys.modules["gpdcov.selftest"]
            selftest.fixture_bases.cache_clear()
            selftest.fixture_covers.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.cli.main(step.argv)
        except (Exception, SystemExit) as exc:
            return None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        text = out.getvalue()
        if code != 0:
            return None, f"exit code {code}: {err.getvalue().strip()}"
        error = step.check(text)
        if error is not None:
            return None, error
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if self.hashes.setdefault(step.label, digest) != digest:
            return None, "stdout differs from an earlier run with this seed"
        if step.save:
            with open(step.save, "w", encoding="utf-8") as fh:
                fh.write(text)
        return elapsed, None

    def save_hashes(self):
        with open(self.hash_file, "w", encoding="utf-8") as fh:
            json.dump(self.hashes, fh, indent=1, sort_keys=True)


def tail(times):
    """The highest listed percentile with at least ten jobs beyond it, as
    (percentile, nearest-rank value), or None when there are too few."""
    n = len(times)
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            return pct, sorted(times)[math.ceil(pct / 100 * n) - 1]
    return None


def harrell_davis_median(values):
    """The Harrell-Davis estimate of the median: a mean of all order
    statistics, weighted by the Beta((n+1)/2, (n+1)/2) distribution.  Job
    kinds differ in size by 20x, and the plain median is the time of one
    or two of them; this spreads its weight over the neighbours."""
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    per = 1000  # grid steps per order statistic
    steps = per * n
    density = [(i / steps * (1 - i / steps)) ** (a - 1)
               for i in range(steps + 1)]
    cdf = [0.0]
    for lo, hi in zip(density, density[1:]):
        cdf.append(cdf[-1] + (lo + hi) / 2)
    return sum((cdf[(k + 1) * per] - cdf[k * per]) / cdf[-1] * x
               for k, x in enumerate(xs))


def report(runner, times, setup_s, rounds):
    """Print a readable summary; return the end-to-end metrics."""
    durations = [t for _, t in times]
    failed = len(runner.failures)
    print(f"{rounds} rounds, {runner.attempted} jobs, {failed} failed "
          f"(failed_share {failed / runner.attempted:.4f})")
    for line in runner.failures[:20]:
        print("FAILED", line)
    by_label = {}
    for label, t in times:
        by_label.setdefault(label, []).append(t)
    for label in sorted(by_label):
        print(f"  {label}: median {statistics.median(by_label[label]):.4f} s"
              f" over {len(by_label[label])}")
    t = tail(durations)
    print("job_s.tail: " + (f"p{t[0]:g} = {t[1]:.4f} s" if t else "none")
          + f" over {len(durations)} jobs")
    medians = [statistics.median(ts) for ts in by_label.values()]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "job_s.p50": {"value": harrell_davis_median(medians) if medians
                      else 0.0, "unit": "s"},
        "jobs_per_s": {"value": len(durations) / sum(durations)
                       if durations else 0.0, "unit": "1/s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024, "unit": "MB"},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gpdcov", "__init__.py")):
        sys.stderr.write(f"error: gpdcov sources not found in {SRC}\n")
        return 1
    sys.path.insert(0, SRC)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}")
    os.makedirs(work, exist_ok=True)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


def measure(args, work):
    """Set up, run rounds for ``args.seconds`` and return the result
    object, or None if gpdcov was not imported from this checkout."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli, pipelines = set_up(args.workload, args.seed, work)
        setup_times.append(time.perf_counter() - start)
    if not cli.__file__.startswith(SRC):
        sys.stderr.write(f"error: gpdcov imported from {cli.__file__}\n")
        return None

    runner = Runner(cli, pipelines, args.seed, os.path.join(
        WORK, f"hashes-{args.workload}-{args.seed}.json"))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    start = time.perf_counter()
    rounds, plain, traced = 0, [], []
    tracer = Tracer() if args.trace else None
    while True:
        plain += runner.round()
        if tracer is not None:
            tracer.install()
            try:
                traced += runner.round(tracer)
            finally:
                tracer.restore()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > args.seconds:
            break
    runner.save_hashes()

    metrics = report(runner, plain, statistics.median(setup_times), rounds)
    if tracer is not None:
        metrics = tracer.metrics(rounds)
        metrics["trace.overhead_share"] = {
            "value": statistics.median(t for _, t in traced)
            / statistics.median(t for _, t in plain)
            if traced and plain else 0.0, "unit": "ratio"}
        spans = os.path.join(WORK, f"spans-{args.workload}.tsv.gz")
        tracer.write_spans(spans)
        print(f"{len(tracer.span_name)} spans written to "
              f"{os.path.relpath(spans, ROOT)}")
    failed = len(runner.failures)
    return {"correct": failed == 0, "attempted": runner.attempted,
            "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
