#!/usr/bin/env python3
"""dtnsim benchmark: four workloads timed end to end, and layer by layer.

    python3 perfbench/run.py --workload bus_eer --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload campaign_fig2 --seed 1 --seconds 30 --trace 1

Run from the root of a checkout. The first call builds the simulator and
the benchmark's workload process into .bench_build/ (see CMakeLists.txt
here). With --trace 0 the workload repeats, each repeat in its own process,
until --seconds have passed; sim_speed is taken over the whole timed phase,
set-up time and memory are medians over the repeats. With --trace 1 a
traced pass gives the per-layer metrics.
Either way every repeat's simulated statistics are checked, and the last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The line before it records the host and the build. README.md has the
workloads, the metrics and how they relate.
"""

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import benchmath  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "work")
DTNBENCH = os.path.join(BUILD, "dtnbench")
DTNSIM = os.path.join(BUILD, "dtn", "dtnsim")

SINGLE_RUN = ("bus_eer", "bus_epidemic", "field_kinetic")
WORKLOADS = SINGLE_RUN + ("campaign_fig2",)
DEFAULT_SEED = 1
# The scenario pool: repeat r of a run simulates scenario seed
# 1 + (--seed + r) % SCENARIOS. The bus map is drawn from the scenario
# seed and one map's run time differs from the next by 20-30%, so a run
# that sampled a few maps would move with the --seed it was given. Every
# run cycles through the whole pool instead, starting where --seed says,
# and its metrics span all of it.
SCENARIOS = 16
# field_kinetic must run on the kinetic calendar; the bus worlds cannot.
EVENT_KERNEL = {"bus_eer": False, "bus_epidemic": False, "field_kinetic": True}

# campaign_fig2: Fig. 2 as users run it, all 12 protocols x two fleet sizes.
CAMPAIGN_CFG = "examples/helsinki_buses.cfg"
CAMPAIGN_PROTOCOLS = ("EER,CR,EBR,MaxProp,SprayAndWait,SprayAndFocus,Epidemic,"
                      "DirectDelivery,PRoPHET,MEED,FirstContact,Delegation")
CAMPAIGN_AXES = ["protocol.name=" + CAMPAIGN_PROTOCOLS, "group.buses.count=40,80"]
CAMPAIGN_SIM_S = 500.0
CAMPAIGN_SETS = ["traffic.ttl=250"]
CAMPAIGN_SEEDS = 3
CAMPAIGN_WORKERS = 2
CAMPAIGN_POINTS = 24
# The campaign's fixed cost: the same grid cut to one 0.1 s step. It takes
# tens of milliseconds, so it is repeated and the median reported.
CAMPAIGN_SETUP_REPEATS = 7

# Every invocation ends within this many seconds after the build.
INVOCATION_BUDGET_S = 170.0


def declared_metrics():
    """(end-to-end, per-layer) {name: unit}, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    return ({m["name"]: m["unit"] for m in declared["end_to_end"]},
            {m["name"]: m["unit"] for m in declared["per_layer"]})


END_TO_END, PER_LAYER = declared_metrics()


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return max(1.0, self.end - time.monotonic())


# ---- build -----------------------------------------------------------------


def build():
    """Configures and builds dtnbench and dtnsim; False when that fails."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("no simulator sources next to perfbench/ (run from a full checkout)")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.call(configure, cwd=ROOT, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", BUILD, "--target", "dtnbench", "dtnsim",
                            "--parallel", jobs], cwd=ROOT, stdout=sys.stderr) == 0


def host_record():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu}


# ---- processes -------------------------------------------------------------


class Finished:
    def __init__(self, code, wall_s, peak_rss_mb, stdout, timed_out):
        self.code = code
        self.wall_s = wall_s
        self.peak_rss_mb = peak_rss_mb
        self.stdout = stdout
        self.timed_out = timed_out

    @property
    def ok(self):
        return self.code == 0 and not self.timed_out


def start(argv, out_path):
    out = open(out_path, "wb")
    try:
        # Own process group, so a timeout also stops a campaign's workers.
        return subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=sys.stderr,
                                start_new_session=True), out
    except BaseException:
        out.close()
        raise


def kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def finish(proc, out, out_path, started, timeout_s):
    """Waits for proc; the rusage of wait4 covers it and its waited children."""
    timer = threading.Timer(timeout_s, kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        out.close()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read().decode(errors="replace")
    timed_out = proc.returncode == -9 and wall >= timeout_s
    if timed_out:
        log("timed out after %.0f s: %s" % (timeout_s, " ".join(proc.args)))
    # ru_maxrss is in KiB on Linux.
    return Finished(proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6, stdout, timed_out)


def run_process(argv, timeout_s, tag):
    out_path = os.path.join(WORK, tag + ".out")
    started = time.perf_counter()
    proc, out = start(argv, out_path)
    return finish(proc, out, out_path, started, timeout_s)


def last_json(text):
    """The last JSON object line of a process's output, or None."""
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


class Checker:
    """Counts attempts and failures; every failure is logged by reason.

    Digests are kept per scenario seed: every repeat of one seed must give
    the same digest, and the one recorded in reference.json where there is
    one.
    """

    def __init__(self, workload):
        self.reference = load_reference().get(workload, {})
        self.digests = {}
        self.attempted = 0
        self.failed = 0

    def attempt(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                log("FAILED: " + p)
        return not problems

    def digest_problems(self, seed, digest, what):
        problems = []
        expected = self.reference.get(str(seed))
        if expected is not None and digest != expected:
            problems.append("%s digest %s at seed %d differs from the reference %s"
                            % (what, digest, seed, expected))
        first = self.digests.setdefault(seed, digest)
        if digest != first:
            problems.append("%s digest %s at seed %d differs from this run's %s"
                            % (what, digest, seed, first))
        return problems


# ---- single-run workloads --------------------------------------------------


def scenario_seed(seed, repeat):
    """The pool scenario repeat `repeat` of a run with --seed `seed` simulates."""
    return 1 + (seed + repeat) % SCENARIOS


def stats_problems(stats):
    """Invariants every run's statistics keep, at any seed."""
    problems = []
    if stats["delivered"] > stats["created"]:
        problems.append("delivered %d > created %d" % (stats["delivered"], stats["created"]))
    if stats["relayed"] + stats["transfers_aborted"] > stats["transfers_started"]:
        problems.append("relayed + aborted > started in %s" % stats)
    if stats["contact_events"] <= 0 or stats["created"] <= 0:
        problems.append("a run without contacts or messages: %s" % stats)
    return problems


def single_repeat(workload, seed, checker, deadline, tag):
    """One untraced run in its own process; returns its JSON or None."""
    res = run_process([DTNBENCH, "run", "--root", ROOT, "--workload", workload,
                       "--seed", str(seed)], deadline.left(), tag)
    out = last_json(res.stdout) if res.ok else None
    if out is None:
        checker.attempt(["%s exited with %s and no result" % (workload, res.code)])
        return None
    out["peak_rss_mb"] = res.peak_rss_mb
    problems = checker.digest_problems(seed, out["digest"], "untraced")
    problems += stats_problems(out["stats"])
    if out["event_kernel_used"] != EVENT_KERNEL[workload]:
        problems.append("event kernel used = %s, expected %s"
                        % (out["event_kernel_used"], EVENT_KERNEL[workload]))
    return out if checker.attempt(problems) else None


def measure_single(workload, seed, seconds, deadline):
    checker = Checker(workload)
    runs = []
    begin = time.monotonic()
    for repeat in itertools.count():
        out = single_repeat(workload, scenario_seed(seed, repeat), checker, deadline,
                            "repeat")
        if out is not None:
            runs.append(out)
        if time.monotonic() - begin >= seconds:
            break
    speeds = [r["sim_seconds"] / r["run_s"] for r in runs]
    setups = [s for r in runs for s in r["setup_s"]]
    rss = [r["peak_rss_mb"] for r in runs]
    metrics = {}
    if runs:
        metrics = {"sim_speed": benchmath.throughput([r["sim_seconds"] for r in runs],
                                                     [r["run_s"] for r in runs]),
                   "setup_s": benchmath.median(setups),
                   "peak_rss_mb": benchmath.median(rss)}
    log("%s: %d repeat(s), sim_speed %s" % (workload, len(runs),
                                             ["%.1f" % s for s in speeds]))
    return checker, metrics, {"repeats": len(runs), "sim_speed": speeds,
                              "sim_speed_quartiles": benchmath.quartiles(speeds) if speeds else None,
                              "digests": checker.digests}


# Untraced repeats of the traced scenario, for the overhead and the counts.
UNTRACED_REPEATS = 2


def trace_single(workload, seed, deadline):
    checker = Checker(workload)
    seed = scenario_seed(seed, 0)
    untraced = [single_repeat(workload, seed, checker, deadline, "untraced")
                for _ in range(UNTRACED_REPEATS)]
    untraced = [u for u in untraced if u is not None]
    spans_path = os.path.join(WORK, "spans-%s-seed%d.json" % (workload, seed))
    res = run_process([DTNBENCH, "trace", "--root", ROOT, "--workload", workload,
                       "--seed", str(seed), "--spans", spans_path],
                      deadline.left(), "traced")
    t = last_json(res.stdout) if res.ok else None
    if t is None:
        checker.attempt(["traced %s exited with %s and no result" % (workload, res.code)])
        return checker, zero_layers(checker), {}
    reps = t["repeats"]
    problems = []
    for rep in reps:
        problems += checker.digest_problems(seed, rep["digest"], "traced")
    if t["runner_digest"] != reps[0]["digest"]:
        problems.append("ScenarioRunner::run digest %s differs from the composed "
                        "build's %s" % (t["runner_digest"], reps[0]["digest"]))
    counts = [r["stats"] for r in reps] + [u["stats"] for u in untraced]
    if any(c != counts[0] for c in counts):
        problems.append("counts differ between repeats or between traced and "
                        "untraced runs: %s" % counts)
    exact = ("node_steps", "pairs_in_range", "occupied_cells_mean", "kinetic_segments")
    if any(r[k] != reps[0][k] for r in reps for k in exact):
        problems.append("replay counts differ between traced repeats")
    if any(r["event_kernel_used"] != EVENT_KERNEL[workload] for r in reps):
        problems.append("traced run: event kernel use is not %s" % EVENT_KERNEL[workload])
    invalid = sorted({name for r in reps for name, passed in r["checks"].items()
                      if not passed})
    problems += ["replay cross-check %s failed; its layer is invalid" % name
                 for name in invalid]
    checker.attempt(problems)
    with open(spans_path) as f:
        report_self_times(json.load(f))

    med = lambda key: benchmath.median([r[key] for r in reps])  # noqa: E731
    first = reps[0]
    s = first["stats"]
    run_s = med("run_s")
    null_s = med("null_router_s")
    step_all, grid_update, all_pairs = med("step_all_s"), med("grid_update_s"), \
        med("all_pairs_s")
    m = zero_layers(checker)
    m.update({
        "harness.parse_s": med("parse_s"),
        "harness.build_s": med("build_s"),
        "geo.map_build_s": med("map_build_s"),
        "mobility.step_all_s": step_all,
        "mobility.ns_per_node_step": benchmath.ratio(step_all * 1e9, first["node_steps"]),
        "mobility.kinetic_segments": first["kinetic_segments"],
        "mobility.kinetic_advance_s": med("kinetic_advance_s"),
        "geo.grid_update_s": grid_update,
        "geo.all_pairs_s": all_pairs,
        "geo.pairs_in_range": first["pairs_in_range"],
        "geo.occupied_cells_mean": first["occupied_cells_mean"],
        "sim.run_s": run_s,
        "sim.steps": s["steps"],
        "sim.contact_ups": s["contact_events"],
        "sim.ns_per_contact": benchmath.ratio(run_s * 1e9, s["contact_events"]),
        "sim.null_router_s": null_s,
        "sim.mobility_geo_share": benchmath.ratio(step_all + grid_update + all_pairs, run_s),
        "sim.created": s["created"],
        "sim.delivered": s["delivered"],
        "sim.relayed": s["relayed"],
        "sim.transfers_started": s["transfers_started"],
        "sim.transfers_aborted": s["transfers_aborted"],
        "sim.dropped": s["dropped"],
        "sim.expired": s["expired"],
        "sim.abort_ratio": benchmath.ratio(s["transfers_aborted"], s["transfers_started"]),
        "sim.event_kernel_used": 1 if first["event_kernel_used"] else 0,
        "routing.share": benchmath.routing_share(null_s, run_s),
        "routing.control_bytes": s["control_bytes"],
    })
    if t["core_probed"]:
        for name, values in t["samples"].items():
            m[name] = benchmath.median(values)
        m["core.history_pairs_mean"] = t["history_pairs_mean"]
        # Computed from sizes, not measured: every router's n x n MI and
        # n x n materialised MD, 8 bytes an entry.
        n = t["nodes"]
        m["core.mi_state_mb"] = n * 2 * n * n * 8 / 1e6
    if untraced:
        traced_wall = benchmath.median([r["setup_s"] + r["run_s"] for r in reps])
        untraced_wall = benchmath.median([benchmath.median(u["setup_s"]) + u["run_s"]
                                          for u in untraced])
        m["trace.overhead_s"] = traced_wall - untraced_wall
    # A failed cross-check invalidates that layer's numbers.
    invalid_prefixes = {"mobility_positions": ("mobility.",),
                        "grid_link_ups": ("geo.grid", "geo.all_pairs", "geo.pairs",
                                          "geo.occupied"),
                        "null_router_contacts": ("sim.null_router", "routing.share")}
    for name in invalid:
        for metric in m:
            if metric.startswith(invalid_prefixes[name]):
                m[metric] = None
    if t["runner_digest"] != first["digest"]:
        for metric in ("harness.parse_s", "harness.build_s", "geo.map_build_s"):
            m[metric] = None
    m["failed_ratio"] = checker.failed / checker.attempted
    return checker, m, {"spans_file": spans_path, "trace_repeats": len(reps)}


def zero_layers(checker):
    """Every per-layer metric, at 0 where this workload does none of that work."""
    metrics = {name: 0 for name in PER_LAYER}
    metrics["failed_ratio"] = checker.failed / max(1, checker.attempted)
    return metrics


def report_self_times(spans):
    own = benchmath.self_times(spans)
    log("spans (total s, self s, calls):")
    for s in spans:
        depth = 0
        parent = s["parent"]
        while parent >= 0:
            depth += 1
            parent = spans[parent]["parent"]
        log("  %-30s %10.4f %10.4f %8d" % ("  " * depth + s["name"], s["total_ns"] * 1e-9,
                                          own[s["id"]] * 1e-9, s["calls"]))


# ---- campaign_fig2 ---------------------------------------------------------


def campaign_argv(scenario, sim_s, extra_sets=()):
    argv = [DTNSIM, "sweep", CAMPAIGN_CFG, "--set", "scenario.duration=%g" % sim_s]
    for kv in CAMPAIGN_SETS + list(extra_sets):
        argv += ["--set", kv]
    for axis in CAMPAIGN_AXES:
        argv += ["--axis", axis]
    return argv + ["--seeds", str(CAMPAIGN_SEEDS),
                   "--seed-base", str(scenario * CAMPAIGN_SEEDS), "--quiet"]


def stable_lines(results_text):
    """dtnsim-sweep/1 without its volatile `"exec` lines."""
    return "".join(line + "\n" for line in results_text.splitlines()
                   if '"exec' not in line)


def stable_digest(results_text):
    return hashlib.sha256(stable_lines(results_text).encode()).hexdigest()[:16]


def campaign_problems(results):
    problems = []
    points = results["points"]
    if len(points) != CAMPAIGN_POINTS:
        problems.append("campaign returned %d points, expected %d"
                        % (len(points), CAMPAIGN_POINTS))
    for p in points:
        if p["exec"]["status"] != "ok" or p["exec"]["tries"] != CAMPAIGN_SEEDS:
            problems.append("campaign point %s: %s" % (p["overrides"], p["exec"]))
    return problems


def campaign_once(scenario, sim_s, extra_sets, tag, deadline):
    """One fleet campaign; returns (Finished, results JSON text or None)."""
    out_json = os.path.join(WORK, tag + "-results.json")
    if os.path.exists(out_json):
        os.remove(out_json)
    argv = campaign_argv(scenario, sim_s, extra_sets) + [
        "--workers", str(CAMPAIGN_WORKERS),
        "--journal", os.path.join(WORK, tag + ".journal"), "--out", out_json]
    res = run_process(argv, deadline.left(), tag)
    text = None
    if res.ok and os.path.exists(out_json):
        with open(out_json) as f:
            text = f.read()
    return res, text, out_json


def measure_campaign(seed, seconds, deadline):
    checker = Checker("campaign_fig2")
    setups = []
    for r in range(CAMPAIGN_SETUP_REPEATS):
        res, text, _ = campaign_once(scenario_seed(seed, r), 0.1,
                                     ["scenario.full_ttl_window=false"], "setup", deadline)
        problems = [] if text else ["one-step campaign exited with %s" % res.code]
        if text:
            problems = campaign_problems(json.loads(text))
        if checker.attempt(problems):
            setups.append(res.wall_s)
    runs = []
    begin = time.monotonic()
    for repeat in itertools.count():
        scenario = scenario_seed(seed, repeat)
        res, text, _ = campaign_once(scenario, CAMPAIGN_SIM_S, [], "campaign", deadline)
        if text is None:
            checker.attempt(["campaign exited with %s" % res.code])
        else:
            problems = campaign_problems(json.loads(text))
            problems += checker.digest_problems(scenario, stable_digest(text), "campaign")
            if checker.attempt(problems):
                runs.append(res)
        if time.monotonic() - begin >= seconds:
            break
    sim_total = CAMPAIGN_POINTS * CAMPAIGN_SEEDS * CAMPAIGN_SIM_S
    speeds = [sim_total / r.wall_s for r in runs]
    metrics = {}
    if runs and setups:
        metrics = {"sim_speed": benchmath.throughput([sim_total] * len(runs),
                                                     [r.wall_s for r in runs]),
                   "setup_s": benchmath.median(setups),
                   "peak_rss_mb": benchmath.median([r.peak_rss_mb for r in runs])}
    log("campaign_fig2: %d campaign(s), wall %s, setup %s"
        % (len(runs), ["%.2f" % r.wall_s for r in runs], ["%.3f" % s for s in setups]))
    return checker, metrics, {"repeats": len(runs), "sim_speed": speeds,
                              "sim_speed_quartiles": benchmath.quartiles(speeds) if speeds else None,
                              "digests": checker.digests}


# Fleet campaigns in a traced pass; the fleet metrics are their medians.
CAMPAIGN_TRACE_REPEATS = 3


def trace_campaign(seed, deadline):
    checker = Checker("campaign_fig2")
    seed = scenario_seed(seed, 0)
    fleet = []  # (wall s, per-point wall s)
    problems = []
    for _ in range(CAMPAIGN_TRACE_REPEATS):
        res, text, _ = campaign_once(seed, CAMPAIGN_SIM_S, [], "campaign", deadline)
        if text is None:
            checker.attempt(["campaign exited with %s" % res.code])
            continue
        results = json.loads(text)
        repeat_problems = campaign_problems(results)
        repeat_problems += checker.digest_problems(seed, stable_digest(text), "campaign")
        if checker.attempt(repeat_problems):
            fleet_text = text
            fleet.append((res.wall_s, [p["exec"]["wall_ms"] / 1e3 for p in results["points"]]))
    if not fleet:
        return checker, zero_layers(checker), {}

    # The same shards, run standalone so their journals stay behind.
    journals = [os.path.join(WORK, "shard-%d.journal" % i) for i in range(CAMPAIGN_WORKERS)]
    shard_runs = []
    for i, journal in enumerate(journals):
        if os.path.exists(journal):
            os.remove(journal)
        argv = campaign_argv(seed, CAMPAIGN_SIM_S) + [
            "--threads", "1", "--journal", journal,
            "--shard", "%d/%d" % (i, CAMPAIGN_WORKERS)]
        out_path = os.path.join(WORK, "shard-%d.out" % i)
        shard_runs.append((time.perf_counter(),) + start(argv, out_path) + (out_path,))
    for started, proc, out, out_path in shard_runs:
        if not finish(proc, out, out_path, started, deadline.left()).ok:
            problems.append("standalone shard exited with %s" % proc.returncode)

    spans_path = os.path.join(WORK, "spans-campaign_fig2-seed%d.json" % seed)
    merged_path = os.path.join(WORK, "merged-results.json")
    argv = [DTNBENCH, "campaign", "--root", ROOT, "--cfg", CAMPAIGN_CFG,
            "--set", "scenario.duration=%g" % CAMPAIGN_SIM_S]
    for kv in CAMPAIGN_SETS:
        argv += ["--set", kv]
    for axis in CAMPAIGN_AXES:
        argv += ["--axis", axis]
    argv += ["--seeds", str(CAMPAIGN_SEEDS), "--seed-base", str(seed * CAMPAIGN_SEEDS),
             "--merged", merged_path, "--spans", spans_path]
    for journal in journals:
        argv += ["--journal", journal]
    helper = run_process(argv, deadline.left(), "merge")
    h = last_json(helper.stdout) if helper.ok else None
    if h is None:
        checker.attempt(problems + ["campaign helper exited with %s" % helper.code])
        return checker, zero_layers(checker), {}
    with open(merged_path) as f:
        merged_equal = stable_lines(f.read()) == stable_lines(fleet_text)
    if not merged_equal or h["merged_ok"] != CAMPAIGN_POINTS:
        problems.append("merged shard journals differ from the fleet's results "
                        "(%d points ok)" % h["merged_ok"])
    checker.attempt(problems)
    with open(spans_path) as f:
        report_self_times(json.load(f))

    busy = [benchmath.shard_busy(point_wall, CAMPAIGN_WORKERS) for _, point_wall in fleet]
    for (wall, _), shards in zip(fleet, busy):
        log("campaign_fig2: wall %.2f s, shard busy %s" % (wall, ["%.2f" % b for b in shards]))
    m = zero_layers(checker)
    m.update({
        "harness.parse_s": h["parse_s"],
        "harness.build_s": h["build_s"],
        "geo.map_build_s": h["map_build_s"],
        "harness.point_busy_s": benchmath.median([sum(pw) for _, pw in fleet]),
        "harness.shard_imbalance": benchmath.median([benchmath.imbalance(b) for b in busy]),
        "harness.fleet_overhead_s": benchmath.median(
            [wall - max(b) for (wall, _), b in zip(fleet, busy)]),
        "harness.merge_s": h["merge_s"],
        "harness.journal_bytes": sum(os.path.getsize(j) for j in journals),
        "harness.journal_records": h["journal_records"],
    })
    if not merged_equal:
        for name in ("harness.merge_s", "harness.journal_bytes", "harness.journal_records"):
            m[name] = None
    m["failed_ratio"] = checker.failed / checker.attempted
    return checker, m, {"spans_file": spans_path, "shard_busy_s": busy}


# ---- main ------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not build():
        log("build failed")
        return 2
    os.makedirs(WORK, exist_ok=True)
    info = last_json(subprocess.run([DTNBENCH, "info"], cwd=ROOT, capture_output=True,
                                    text=True).stdout)
    if info is None or not info["ndebug"] or info["sanitized"]:
        log("refusing to measure a build without NDEBUG or with sanitizers: %s" % info)
        return 3

    deadline = Deadline(INVOCATION_BUDGET_S)
    if args.trace:
        if args.workload in SINGLE_RUN:
            checker, metrics, detail = trace_single(args.workload, args.seed, deadline)
        else:
            checker, metrics, detail = trace_campaign(args.seed, deadline)
        units = PER_LAYER
    else:
        if args.workload in SINGLE_RUN:
            checker, metrics, detail = measure_single(args.workload, args.seed,
                                                      args.seconds, deadline)
        else:
            checker, metrics, detail = measure_campaign(args.seed, args.seconds, deadline)
        units = END_TO_END

    undeclared = sorted(set(metrics) - set(units))
    if undeclared:
        log("metrics missing from BENCHMARK.json: %s" % undeclared)
        return 4
    print(json.dumps({"host": host_record(), "build": info, "workload": args.workload,
                      "seed": args.seed, "trace": args.trace, "detail": detail}))
    result = {
        "correct": checker.failed == 0 and checker.attempted > 0 and bool(metrics),
        "attempted": max(1, checker.attempted),
        "failed": checker.failed if checker.attempted else 1,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
