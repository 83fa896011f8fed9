#!/usr/bin/env python3
"""Benchmark of the ccq library, from source, in one command.

    python3 perfbench/run.py --workload quantize|serve-tcp \\
        --seed N --seconds S --trace 0|1

Builds the harness (perfbench/CMakeLists.txt) into .bench_build/ at the
root of the checkout, runs one workload, checks its outputs and prints
every metric by name with its unit and sample count.  Both workloads run
the same pipeline (pretrain, quantize with CCQ, export, serve over TCP)
and report the same metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
README.md gives the rationale.

Exits 0 only when every output was correct and no operation failed.
"""

import argparse
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("quantize", "serve-tcp")
HARNESS_TIMEOUT_S = 165

# name -> unit.  Every workload reports every metric: the end-to-end ones
# with --trace 0, the per-layer ones with --trace 1.
END_TO_END = {
    "setup_s": "s", "top1_pct": "%", "compression_x": "x",
    "latency_p50_us": "us", "latency_p90_us": "us",
}
PER_LAYER = {
    "core.init_s": "s", "core.probe_ms": "ms", "core.probes": "count",
    "core.recovery_epoch_s": "s", "core.recovery_epochs": "count",
    "nn.conv_forward_ms": "ms", "nn.conv_backward_ms": "ms",
    "tensor.gemm_share": "ratio", "common.workspace_hit_ratio": "ratio",
    "hw.forward_b2_us": "us", "hw.igemm_share": "ratio",
    "hw.requant_share": "ratio", "serve.batch_fill": "ratio",
    "serve.server_latency_us": "us", "serve.admit_ratio": "ratio",
    "serve.artifact_load_ms": "ms", "protocol.codec_us": "us",
    "net.overhead_us": "us", "trace.overhead_pct": "%",
}


class Result:
    """Metrics of one run plus the operation counts and correctness."""

    def __init__(self):
        self.metrics = {}   # name -> (value, sample count)
        self.notes = []     # extra report lines, never gated
        self.attempted = 0
        self.failed = 0
        self.problems = []  # why the outputs are not correct

    def add(self, name, value, count):
        self.metrics[name] = (float(value), count)


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def self_test():
    """The benchmark's own statistics must pass their tests first."""
    suite = unittest.defaultTestLoader.loadTestsFromName("test_stats")
    stream = io.StringIO()
    outcome = unittest.TextTestRunner(stream=stream, verbosity=0).run(suite)
    if not outcome.wasSuccessful():
        sys.stderr.write(stream.getvalue())
        fail("statistics self-tests failed", 3)


def child_env():
    """Shipped program defaults (no CCQ_* overrides, so kernels run on
    one thread) and temp files inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CCQ_")}
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    return env


def run_logged(cmd, env):
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-20000:])
        fail("command failed: " + " ".join(cmd), 4)


def build(env):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "ccq"))):
        fail("no ccq sources beside perfbench/ (expected CMakeLists.txt "
             "and src/ccq at the root of the checkout)")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD], env)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_logged(["cmake", "--build", BUILD, "--target", "ccq_perfbench",
                "-j", jobs], env)
    return os.path.join(BUILD, "ccq_perfbench")


def cpu_times():
    """The aggregate cpu line of /proc/stat (None when unavailable)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return [int(x) for x in fields[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user..steal; guest time is inside user
    return stats.ratio(delta[7], total)


def source_digest():
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or None


def run_harness(binary, args, env):
    """Run the harness in a fresh temp dir; return its raw JSON and the
    host's steal share over the run."""
    tmp = tempfile.mkdtemp(prefix="run-", dir=env["TMPDIR"])
    try:
        out = os.path.join(tmp, "raw.json")
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp", tmp, "--out", out]
        before = cpu_times()
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=HARNESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("harness timed out after %d s" % HARNESS_TIMEOUT_S, 5)
        after = cpu_times()
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-20000:])
            fail("harness exited with %d" % proc.returncode, 5)
        with open(out) as f:
            return json.load(f), steal_share(before, after)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ---- metrics ----------------------------------------------------------------

def timer(telemetry, name):
    return telemetry["timers"][name]


def timer_mean_ns(telemetry, name):
    t = timer(telemetry, name)
    return stats.ratio(t["total_ns"], t["count"])


def workspace_hit_ratio(*telemetries):
    """Workspace acquisitions served from the pool, over every given
    telemetry snapshot."""
    hits = sum(t["counters"]["workspace.acquire_hits"] for t in telemetries)
    misses = sum(t["counters"]["workspace.acquire_misses"]
                 for t in telemetries)
    return stats.ratio(hits, hits + misses)


def check_quantize(result, raw, traced):
    """Every quantize run of the workload (its repetitions, and the traced
    run) must end exactly like the first: the same final per-layer bits,
    top1_pct and compression_x."""
    reps = raw["ccq_reps"]
    first = reps[0]
    key = ("final_bits", "top1_pct", "compression_x")
    runs = reps + ([raw["ccq_traced"]] if traced else [])
    result.attempted += len(runs)
    for i, rep in enumerate(runs[1:], 1):
        if any(rep[k] != first[k] for k in key):
            result.failed += 1
            what = "traced run" if traced and i == len(runs) - 1 else \
                "repetition %d" % i
            result.problems.append(
                "%s quantized differently from the first: bits %s top-1 %s "
                "compression %s vs bits %s top-1 %s compression %s"
                % (what, rep["final_bits"], rep["top1_pct"],
                   rep["compression_x"], first["final_bits"],
                   first["top1_pct"], first["compression_x"]))
    times = [r["quantize_s"] for r in reps]
    # Reported, not gated: see README.md, "Bounds and measured steadiness".
    result.notes.append(
        "quantize: final bits %s after %d steps; quantize_s %.4f s "
        "(median, n=%d, not gated)"
        % (first["final_bits"], first["steps"], stats.median(times),
           len(times)))


def check_serving(result, serve):
    """Error replies and replies that differ from forward_reference are
    failed operations."""
    result.attempted += int(serve["attempted"])
    result.failed += int(serve["failed"])
    if serve["failed"]:
        result.problems.append("%d of %d serving operations failed (error "
                               "reply or reply differing from "
                               "forward_reference)"
                               % (serve["failed"], serve["attempted"]))
    for phase in ("untraced", "traced"):
        if phase in serve and serve[phase]["errors"]:
            result.problems.append("client errors: %s"
                                   % serve[phase]["errors"])


def round_trips_us(phase):
    return [ns * 1e-3 for ns in phase["latency_ns"]]


def end_to_end(result, raw):
    first = raw["ccq_reps"][0]
    count = len(raw["ccq_reps"])
    result.add("setup_s", stats.median(raw["setup_s"]), len(raw["setup_s"]))
    result.add("top1_pct", first["top1_pct"], count)
    result.add("compression_x", first["compression_x"], count)
    untraced = round_trips_us(raw["serve"]["untraced"])
    result.add("latency_p50_us", stats.nearest_rank(untraced, 0.5),
               len(untraced))
    result.add("latency_p90_us", stats.nearest_rank(untraced, 0.9),
               len(untraced))
    top = stats.top_percentile(len(untraced))
    if top is not None and top > 90.0:
        result.notes.append(
            "latency_p%g_us %.1f us (n=%d, not gated)"
            % (top, stats.nearest_rank(untraced, top / 100.0),
               len(untraced)))


def quantize_layers(result, raw):
    """core, nn, tensor: the traced quantize run."""
    t = raw["ccq_traced"]
    tel = raw["ccq_telemetry"]
    spans = raw["ccq_spans"]
    init = stats.spans_named(spans, "ccq.init")
    probes = stats.spans_named(spans, "ccq.probe")
    epochs = stats.spans_named(spans, "ccq.recovery_epoch")
    result.add("core.init_s", init[0] * 1e-9, 1)
    result.add("core.probe_ms", stats.mean(probes) * 1e-6, len(probes))
    result.add("core.probes", len(probes), 1)
    result.add("core.recovery_epoch_s", stats.mean(epochs) * 1e-9,
               len(epochs))
    result.add("core.recovery_epochs", len(epochs), 1)
    for name, timer_name in (("nn.conv_forward_ms", "conv.forward"),
                             ("nn.conv_backward_ms", "conv.backward")):
        result.add(name, timer_mean_ns(tel, timer_name) * 1e-6,
                   timer(tel, timer_name)["count"])
    result.add("tensor.gemm_share",
               timer(tel, "gemm")["total_ns"] * 1e-9 / t["quantize_s"],
               timer(tel, "gemm")["count"])


def serving_layers(result, serve):
    """hw, serve, protocol, net: the traced serving half and the
    standalone calls after it."""
    spans = serve["spans"]
    t = serve["traced"]
    forward_ns = stats.spans_named(spans, "hw.forward")
    forward_tel = serve["forward_telemetry"]
    result.add("hw.forward_b2_us", stats.median(forward_ns) * 1e-3,
               len(forward_ns))
    for name, timer_name in (("hw.igemm_share", "hw.igemm"),
                             ("hw.requant_share", "hw.requant")):
        result.add(name, timer(forward_tel, timer_name)["total_ns"]
                   / sum(forward_ns), len(forward_ns))
    latency = t["server_latency"]
    server_us = stats.ratio(latency["total_ns"], latency["count"]) * 1e-3
    result.add("serve.server_latency_us", server_us, latency["count"])
    counters = t["telemetry"]["counters"]
    result.add("serve.batch_fill",
               stats.batch_fill(counters["serve.requests"],
                                counters["serve.batches"],
                                serve["max_batch"]),
               counters["serve.batches"])
    result.add("serve.admit_ratio",
               stats.ratio(serve["admitted"], serve["attempted"]),
               serve["attempted"])
    loads = stats.spans_named(spans, "serve.load_artifact")
    result.add("serve.artifact_load_ms", stats.median(loads) * 1e-6,
               len(loads))
    passes = stats.spans_named(spans, "protocol.codec")
    result.add("protocol.codec_us",
               stats.median(passes) * 1e-3 / serve["codec_frames"],
               len(passes) * serve["codec_frames"])
    infer_us = [d * 1e-3 for d in stats.spans_named(spans, "net.infer")]
    result.add("net.overhead_us", stats.net_overhead_us(infer_us, server_us),
               len(infer_us))


def workload_metrics(workload, raw, traced):
    """The workload's end-to-end metrics, or its per-layer ones from a
    traced run, with the output checks of both phases."""
    result = Result()
    check_quantize(result, raw, traced)
    check_serving(result, raw["serve"])
    if not traced:
        end_to_end(result, raw)
        return result

    serve = raw["serve"]
    quantize_layers(result, raw)
    serving_layers(result, serve)
    result.add("common.workspace_hit_ratio",
               workspace_hit_ratio(raw["ccq_telemetry"],
                                   serve["traced"]["telemetry"]), 1)
    # The overhead of tracing on the workload's dominant phase.
    if workload == "quantize":
        untraced = raw["ccq_reps"][0]["quantize_s"]
        traced_value = raw["ccq_traced"]["quantize_s"]
        what = "quantize_s %.4f s" % untraced, "%.4f s" % traced_value
    else:
        untraced = stats.nearest_rank(round_trips_us(serve["untraced"]), 0.5)
        traced_value = stats.nearest_rank(round_trips_us(serve["traced"]),
                                          0.5)
        what = "latency p50 %.1f us" % untraced, "%.1f us" % traced_value
    result.add("trace.overhead_pct",
               stats.change_pct(untraced, traced_value), 1)
    result.notes.append("%s untraced, %s traced" % what)
    return result


def report(args, result, units, context):
    print("perfbench %s seed %d trace %d" % (args.workload, args.seed,
                                               args.trace))
    for name, unit in units.items():
        value, count = result.metrics[name]
        print("  %-28s %14.4f %-7s (n=%d)" % (name, value, unit, count))
    for note in result.notes:
        print("  " + note)
    for problem in result.problems:
        print("  INCORRECT: " + problem)
    print("  operations attempted %d, failed %d"
          % (result.attempted, result.failed))
    print("context " + json.dumps(context, sort_keys=True))
    correct = not result.problems and result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name][0], "unit": unit}
                    for name, unit in units.items()},
    }))
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 2:
        fail("--seconds must be at least 2 (a traced run measures half of "
             "its serving interval untraced and half traced)")

    self_test()
    env = child_env()
    binary = build(env)
    raw, steal = run_harness(binary, args, env)
    result = workload_metrics(args.workload, raw, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END

    with open(os.path.join(BUILD, "build_context.json")) as f:
        context = json.load(f)
    context.update({
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "steal_share": steal,
    })
    context["served_layers"] = raw["serve"]["layers"]
    sys.exit(0 if report(args, result, units, context) else 1)


if __name__ == "__main__":
    main()
