#!/usr/bin/env python3
"""The repository benchmark: host throughput, set-up time and memory of
the TMCC simulator on four traffic shapes, plus a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload graph-walk --seed 1 --seconds 20 --trace 0

It builds perfbench/ (the simulator libraries from src/ plus the
perfbench_sim harness) into .bench_build/, then for --seconds starts one
fresh perfbench_sim process per repetition, each in an empty temporary
directory with every TMCC_* variable removed from its environment.  It
checks each repetition's simulated outputs, prints every metric by name
and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones.  --record SEED... rewrites perfbench/expected.json
from the current simulator instead of measuring.  See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
BINARY = BUILD / "perfbench_sim"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("graph-walk", "stream-compresso", "tenant-ml2", "figure-grid")
GRID = "figure-grid"
TRACED_MEMBER = "pageRank/tmcc"  # grid config a traced grid run replays
MIN_REPS = 3             # timed repetitions even past --seconds
RUN_LIMIT_S = 170.0      # an invocation must end within 180 s of its build

# SimResult headline fields compared against expected.json.
HEADLINE = ("accesses", "elapsed", "tlbHits", "tlbMisses", "llcMisses",
            "llcWritebacks", "cteHits", "cteMisses", "ml1CteHit",
            "ml1Parallel", "ml1Mismatch", "ml1Serial", "ml2Accesses",
            "dramUsedBytes", "footprintBytes")
ML1_SPLIT = ("ml1CteHit", "ml1Parallel", "ml1Mismatch", "ml1Serial",
             "ml2Accesses")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; exits 1 on failure."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=880)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build failed: {err}")
            sys.exit(1)
        if done.returncode != 0:
            log(done.stdout[-4000:] + done.stderr[-4000:])
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(1)


def child_env():
    """The environment without TMCC_* knobs, and the ones removed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TMCC_")}
    removed = {k: v for k, v in os.environ.items() if k.startswith("TMCC_")}
    return env, removed


def run_child(args, env, timeout):
    """One fresh perfbench_sim process in an empty temporary directory.

    Returns (parsed JSON or None, error text)."""
    scratch = BUILD.parent / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    cwd = tempfile.mkdtemp(prefix="rep-", dir=scratch)
    try:
        done = subprocess.run([str(BINARY)] + args, cwd=cwd, env=env,
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f}s: {args}"
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    if done.returncode != 0:
        return None, (f"exit {done.returncode}: {args}\n"
                      f"{done.stderr[-2000:]}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, f"unparsable output: {args}"


def recorded_form(heads):
    """{config name: {headline field: value}} as expected.json holds it."""
    return {n: {k: h[k] for k in HEADLINE} for n, h in heads.items()}


def digest(heads):
    text = json.dumps(recorded_form(heads), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def headline_errors(name, h, compressed):
    """Accounting identities that hold for any seed."""
    errs = []
    if any(k not in h for k in HEADLINE):
        return [f"{name}: missing headline fields"]
    if h["tlbHits"] + h["tlbMisses"] != h["accesses"]:
        errs.append(f"{name}: tlb hits + misses != accesses")
    if sum(h[k] for k in ML1_SPLIT) != h["llcMisses"]:
        errs.append(f"{name}: ML1 split + ML2 != LLC misses")
    cte = h["cteHits"] + h["cteMisses"]
    if cte != (h["llcMisses"] if compressed else 0):
        errs.append(f"{name}: CTE hits + misses != LLC misses")
    for k in ("accesses", "elapsed", "footprintBytes", "dramUsedBytes"):
        if h[k] <= 0:
            errs.append(f"{name}: {k} is not positive")
    return errs


def headlines_of(workload, out):
    """{config name: headline} of one perfbench_sim result."""
    if workload == GRID:
        return out["headlines"]
    return {workload: out["headline"]}


def check_output(workload, seed, out, first, expected):
    """Errors in one repetition's simulated outputs.

    Every seed: accounting identities, the same headlines as the first
    repetition (a fresh process), and, on the grid, repeated configs equal
    to their first occurrence.  Recorded seeds: the recorded headlines
    (full values or their digest) exactly."""
    heads = headlines_of(workload, out)
    errs = []
    for name, h in heads.items():
        errs += headline_errors(name, h, not name.endswith("no-compression"))
    if workload == GRID and out.get("duplicates_identical") is not True:
        errs.append("a repeated grid config differs from its first run")
    if first is not None and heads != first:
        errs.append("headlines differ from the first repetition")
    rec = expected.get(workload, {})
    full = rec.get("values", {}).get(str(seed))
    if full is not None and full != recorded_form(heads):
        errs.append(f"headlines differ from the values recorded for seed {seed}")
    dig = rec.get("digests", {}).get(str(seed))
    if dig is not None and dig != digest(heads):
        errs.append(f"headlines differ from the digests recorded for seed {seed}")
    return errs


def repeat(seconds, started, one_rep):
    """Call one_rep() until --seconds are used (at least MIN_REPS times),
    not starting a repetition that would overrun."""
    begin = time.monotonic()
    durations = []
    while True:
        used = time.monotonic() - begin
        if len(durations) >= MIN_REPS:
            if used + statistics.median(durations) > seconds:
                break
        if time.monotonic() - started > RUN_LIMIT_S / 2 and durations:
            break
        t0 = time.monotonic()
        if not one_rep():
            break
        durations.append(time.monotonic() - t0)


def median_of(values):
    """Median, or 0 when every repetition failed (then correct is false)."""
    return statistics.median(values) if values else 0.0


class Bench:
    """One invocation: repetitions, checks and metric aggregation."""

    def __init__(self, args):
        self.args = args
        self.env, self.tmcc_env = child_env()
        self.started = time.monotonic()
        self.expected = (json.loads(EXPECTED.read_text())
                         if EXPECTED.exists() else {})
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first = None

    def timeout(self):
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def attempt(self, cmd, check=True):
        """Run one repetition; returns its output, or None if it failed."""
        self.attempted += 1
        out, err = run_child(cmd, self.env, self.timeout())
        errs = [err] if out is None else []
        if out is not None and check:
            # A traced grid run nests the grid's result and replays its
            # first TMCC member, which must match that member's run.
            grid = out.get("grid")
            checked = grid or out
            errs = check_output(self.args.workload, self.args.seed,
                                checked, self.first, self.expected)
            if grid and out["headline"] != grid["headlines"][TRACED_MEMBER]:
                errs.append("traced grid member differs from its grid run")
            errs += [f"traced run: {k} is false" for k in
                     ("replay_counts_match", "engine_lookups_match",
                      "codec_round_trip") if out.get(k) is False]
            if self.first is None:
                self.first = headlines_of(self.args.workload, checked)
        if errs:
            self.failed += 1
            self.errors += errs
            return None
        return out

    def seed_args(self):
        return ["--workload", self.args.workload,
                "--seed", str(self.args.seed)]

    def end_to_end(self):
        w = self.args.workload
        setup, rate, wall, rss = [], [], [], []

        def one_rep():
            if w == GRID:
                out = self.attempt(["grid", "--seed", str(self.args.seed)])
            else:
                out = self.attempt(["run"] + self.seed_args())
            if out is None:
                return False
            setup.append(out["setup_s"])
            rate.append(out["engine_accesses"] / out["measure_s"] / 1e6
                        if w != GRID else
                        out["engine_accesses"] / out["wall_s"] / 1e6)
            wall.append(out["wall_s"])
            rss.append(out["peak_rss_mb"])
            if w != GRID:
                # A set-up-only fresh process: one more set-up sample.
                probe = self.attempt(["run", "--setup-only"]
                                     + self.seed_args(), check=False)
                if probe is None:
                    return False
                setup.append(probe["setup_s"])
            return True

        repeat(self.args.seconds, self.started, one_rep)
        log(f"{len(wall)} timed repetitions, {len(setup)} set-up samples")
        return {"setup_s": median_of(setup),
                "sim_macc_per_s": median_of(rate),
                "wall_s": median_of(wall),
                "peak_rss_mb": median_of(rss)}

    def per_layer(self):
        samples = {}

        def one_rep():
            out = self.attempt(["trace"] + self.seed_args())
            if out is None:
                return False
            m = dict(out["layers"])
            m["sim.traced_wall_s"] = out["traced_wall_s"]
            grid = out.get("grid") or {}
            m["sim.ckpt.restored_runs"] = grid.get("restored_runs", 0)
            m["sim.ckpt.misses"] = grid.get("ckpt_misses", 0)
            m["sim.duplicate_runs"] = grid.get("duplicate_runs", 0)
            m["sim.simulated_runs"] = grid.get("simulated_runs", 0)
            m["sim.runner.jobs"] = grid.get("jobs", 0)
            for k, v in m.items():
                samples.setdefault(k, []).append(v)
            return True

        repeat(self.args.seconds, self.started, one_rep)
        return {k: median_of(v) for k, v in samples.items()}


def provenance(bench):
    info, _ = run_child(["info"], bench.env, 30)
    rev = "none"
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if git.returncode == 0:
            rev = git.stdout.strip()
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            src.update(str(path.relative_to(ROOT)).encode())
            src.update(path.read_bytes())
    return dict(info or {}, nproc=os.cpu_count(), git_rev=rev,
                src_sha256=src.hexdigest(), tmcc_env=bench.tmcc_env)


def declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def record(seeds):
    """Rewrite expected.json: full headlines for the first two seeds (the
    default and the held-out one), digests for every seed."""
    env, _ = child_env()
    table = {}
    for w in WORKLOADS:
        values, digests = {}, {}
        for i, seed in enumerate(seeds):
            cmd = (["grid", "--seed", str(seed)] if w == GRID else
                   ["run", "--workload", w, "--seed", str(seed)])
            out, err = run_child(cmd, env, 600)
            if out is None:
                log(err)
                sys.exit(1)
            heads = headlines_of(w, out)
            digests[str(seed)] = digest(heads)
            if i < 2:
                values[str(seed)] = recorded_form(heads)
            log(f"recorded {w} seed {seed}")
        table[w] = {"values": values, "digests": digests}
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", type=int, nargs="+", metavar="SEED")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.record and not args.workload:
        p.error("--workload is required")

    build()
    if args.record:
        record(args.record)
        return 0

    bench = Bench(args)
    prov = provenance(bench)
    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    units = declared(args.trace)
    if set(metrics) != set(units):
        bench.errors.append(
            "emitted metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}")

    for e in bench.errors:
        log(f"CHECK FAILED: {e}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  attempted {bench.attempted}  "
          f"failed {bench.failed}  failed_frac "
          f"{bench.failed / max(bench.attempted, 1):.3f}")
    for name in sorted(metrics):
        print(f"  {name:48s} {metrics[name]:>16.6g} {units.get(name, '?')}")
    result = {
        "correct": not bench.errors and bench.attempted > 0,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": {n: {"value": metrics.get(n, 0.0), "unit": u}
                    for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
