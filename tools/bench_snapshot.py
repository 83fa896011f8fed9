#!/usr/bin/env python3
"""Run a benchmark grid and snapshot it to a committed BENCH_*.json.

Four suites cover float training, the integer-inference datapath and the
serving stack:

  train     BM_Gemm, BM_ConvForward, BM_ConvBackward,
            BM_ConvForwardThreads, BM_ConvBackwardThreads, BM_PactStep,
            BM_BatchNormStep, BM_LoaderNext, BM_TrainStep/0 and
            BM_ProbeStep/0 -> BENCH_train.json
            the float path that pretraining, every competition probe and
            every recovery epoch run: the SGEMM tile, batch-folded conv
            forward / backward at 1, 2 and 4 threads, PACT (fp and 8-bit)
            and BatchNorm forward + backward on a (32, 4, 16, 16) activation,
            one augmented loader batch of 32, and one SGD step and one
            probe on a thin ResNet-20 (allocs_per_iter must stay 0).
            Rows are medians over 3 processes of 5 interleaved
            repetitions and gate on real_time_ns.  The suite stays out of
            CI's bench smoke: absolute times do not carry from one runner
            to another, and the suite has no in-process reference row to
            form a ratio against

  igemm     BM_IgemmForward -> BENCH_igemm.json
            the kernel registry (vec16 / vec-packed) vs the naive int64
            reference, on a two-conv net whose quantized activations make
            every layer fuse its requantization into the epilogue
  engine    BM_EngineForward -> BENCH_engine.json
            the end-to-end fused engine forward (u8 codes through igemm
            epilogues, integer pooling, final decode) vs forward_reference,
            on a two-block 16->32->32-channel net at batch 4 (rows
            <bits>/<mode>) and on the served SimpleCNN at batch 1 (rows
            simplecnn-b1/2/<mode>, all layers 2-bit as `quantize` ends,
            and simplecnn-b1/8-8-4-2-8/<mode>, the bits `serve-tcp`
            serves)
  serve     BM_Serve* (bench_serve binary) -> BENCH_serve.json
            the registry-routed inference server: closed-loop capacity
            (producers x workers) and an open-loop offered-load sweep
            with p50/p99 latency and shed rate, each at batch-fill hold
            0 and at a positive hold (row suffix /d<max_delay_us>), idle
            round-trip latency through submit + get (latency/w<W>) and
            through the blocking infer (latency/w<W>/infer), the
            per-sample engine forward at batch
            1..16 (forward/b<N>, us_per_sample), and a two-model
            weighted mixed-priority sweep with per-class p50/p99 and the
            shed split (shed rates are fractions of offered submission
            attempts, not the sample count)

Typical use:

    tools/bench_snapshot.py --build build                 # all suites: run + compare + update
    tools/bench_snapshot.py --build build --suite engine  # one suite
    tools/bench_snapshot.py --build build --suite train   # float training rows
    tools/bench_snapshot.py --build build --check         # run + compare, no write
    tools/bench_snapshot.py --json out.json --suite igemm --check

Every snapshot records its provenance in "context": the git sha of the
checkout (suffixed "-dirty" when tracked files had uncommitted changes),
the git tree ids of src/ and bench/ as they were on disk (src_tree,
bench_tree: a snapshot taken before its sources are committed names the
parent commit in git_sha, and these equal `git rev-parse <commit>:src`
and `<commit>:bench` for the commit that holds the timed code), the
build type and C++ flags CMake wrote to <build>/bench/
build_context.json, the ISA leg those flags select (portable, or the
-march target such as native), libbenchmark's num_cpus and
mhz_per_cpu, and, for bench_kernels suites, igemm_packed_simd (whether
the build carries vec-packed's 8-bit-lane SIMD, which decides whether
the igemm grid has vec-packed rows).  libbenchmark's own
"library_build_type" (how the
benchmark library was compiled, not this repo) is kept as
benchmark_library_build_type.  A check refuses to compare a run with a
snapshot from another build type, flag set or ISA leg; a snapshot older
than these fields is compared with a warning.

Comparison is per row against the committed snapshot; a row regressing
by more than --tolerance (default 25%, benchmarks on shared runners are
noisy) fails the check.  The train suite gates on real_time_ns.  The igemm and engine suites gate on
speedup_vs_reference — each kernel row against the naive-oracle row at
the same bit width, measured in the same processes — because a ratio
carries from one machine to another and absolute real_time_ns does not;
their reference rows are reported, not gated.  Their rows are medians
over 3 processes of 5 interleaved repetitions each (about a minute per
suite).  The serve suite gates on real_time_ns.  Open-loop serve rows
are wall-clock-paced by construction, so their regression signal is the
p99_us column, reported alongside.
"""

import argparse
import json
import pathlib
import statistics
import os
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
SUITES = {
    "train": {
        "filter": ("^BM_Gemm/|^BM_ConvForward/|^BM_ConvBackward/"
                   "|^BM_ConvForwardThreads/|^BM_ConvBackwardThreads/"
                   "|^BM_PactStep/|^BM_BatchNormStep$|^BM_LoaderNext$"
                   "|^BM_TrainStep/0$|^BM_ProbeStep/0$"),
        "binary": "bench_kernels",
        "snapshot": REPO / "BENCH_train.json",
        "named": True,
        "repetitions": 5,
        "processes": 3,
    },
    "igemm": {
        "filter": "BM_IgemmForward",
        "binary": "bench_kernels",
        "snapshot": REPO / "BENCH_igemm.json",
        "modes": {0: "reference", 1: "vec16", 2: "vec-packed"},
        "repetitions": 5,
        "processes": 3,
    },
    "engine": {
        "filter": "BM_EngineForward",
        "binary": "bench_kernels",
        "snapshot": REPO / "BENCH_engine.json",
        "modes": {0: "reference", 1: "fused"},
        # Row-key prefix per net argument (net 0 keys are <bits>/<mode>);
        # {bits} is the bits argument.
        "nets": {1: "simplecnn-b1/{bits}", 2: "simplecnn-b1/8-8-4-2-8"},
        "repetitions": 5,
        "processes": 3,
    },
    "serve": {
        "filter": "BM_Serve",
        "binary": "bench_serve",
        "snapshot": REPO / "BENCH_serve.json",
    },
}

# Build-context fields that must match before two runs are compared.
PROVENANCE = ("build_type", "cxx_flags", "isa")

# google-benchmark reports real_time in the benchmark's chosen unit.
UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def real_time_ns(b: dict) -> float:
    return b["real_time"] * UNIT_TO_NS.get(b.get("time_unit", "ns"), 1.0)


def git_sha() -> str:
    """HEAD of the checkout, with "-dirty" when tracked files differ."""
    try:
        sha = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                             check=True, capture_output=True,
                             text=True).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(REPO), "status", "--porcelain",
             "--untracked-files=no"],
            check=True, capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def source_trees() -> dict:
    """Git tree ids of src/ and bench/ as they are on disk, tracked and
    untracked alike (ignored files excluded), through a scratch index so
    the checkout's own index is untouched."""
    def git(*argv: str, env: dict | None = None) -> str:
        return subprocess.run(["git", "-C", str(REPO), *argv], check=True,
                              capture_output=True, text=True,
                              env=env).stdout.strip()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            env = {**os.environ, "GIT_INDEX_FILE": str(pathlib.Path(tmp) / "index")}
            git("read-tree", "HEAD", env=env)
            git("add", "-A", "--", "src", "bench", env=env)
            tree = git("write-tree", env=env)
        return {f"{d}_tree": git("rev-parse", f"{tree}:{d}")
                for d in ("src", "bench")}
    except (OSError, subprocess.CalledProcessError):
        return {"src_tree": "unknown", "bench_tree": "unknown"}


def build_context(build_dir: pathlib.Path) -> dict:
    """Build type, C++ flags and ISA leg of the bench binaries under
    build_dir, as CMake recorded them, plus the checkout's git sha and
    source trees."""
    path = build_dir / "bench" / "build_context.json"
    if not path.exists():
        sys.exit(f"no {path}: reconfigure the build tree with cmake")
    ctx = json.loads(path.read_text())
    march = [f.split("=", 1)[1] for f in ctx["cxx_flags"].split()
             if f.startswith("-march=")]
    return {
        "git_sha": git_sha(),
        **source_trees(),
        "build_type": ctx["build_type"],
        "cxx_flags": ctx["cxx_flags"],
        "isa": march[-1] if march else "portable",
    }


def comparable(current: dict | None, snapshot: dict) -> bool:
    """False when the snapshot came from another build type, flag set or
    ISA leg than this run; an older snapshot without those fields, or a
    run without a build tree, is compared with a warning."""
    base = snapshot.get("context", {})
    missing = [k for k in PROVENANCE if k not in base]
    if missing:
        print(f"WARNING  the snapshot records no {', '.join(missing)}; "
              "comparing without checking the build context")
        return True
    if current is None:
        print("WARNING  no build tree given; comparing without checking "
              "the build context")
        return True
    differ = [k for k in PROVENANCE if base[k] != current[k]]
    for k in differ:
        print(f"REFUSED  {k}: snapshot {base[k]!r}, this build {current[k]!r}")
    return not differ


def run_bench(build_dir: pathlib.Path, suite: dict) -> dict:
    """Run the suite's grid in `processes` separate processes (default 1)
    and return one benchmark JSON holding every process's rows."""
    exe = build_dir / "bench" / suite["binary"]
    if not exe.exists():
        sys.exit(f"bench binary not found: {exe} (build the '{suite['binary']}' target)")
    cmd = [
        str(exe),
        f"--benchmark_filter={suite['filter']}",
        "--benchmark_format=json",
        "--benchmark_min_warmup_time=0.2",
    ]
    if "repetitions" in suite:
        # Each process reports the median of repetitions run in random
        # interleaved order, so a drift in the host's speed hits the
        # kernel rows and the reference rows of a gated ratio alike.
        cmd += [f"--benchmark_repetitions={suite['repetitions']}",
                "--benchmark_enable_random_interleaving=true",
                "--benchmark_report_aggregates_only=true"]
    raw = {"benchmarks": []}
    for _ in range(suite.get("processes", 1)):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True)
        one = json.loads(out.stdout)
        raw.setdefault("context", one.get("context", {}))
        raw["benchmarks"] += one.get("benchmarks", [])
    return raw


def parse_mode_rows(raw: dict, suite: dict) -> dict:
    """google-benchmark JSON -> {"[<net>/]<bits>/<mode-name>": row} with
    speedups.  A row is the median over the runs of its benchmark in
    `raw`: one per process, each the median aggregate of that process's
    repetitions when it has them.  Medians across processes matter on a
    shared host: one process's ratios can sit 20-30% off another's, and
    repetitions inside a process do not average that out."""
    bench_filter, modes = suite["filter"], suite["modes"]
    nets = suite.get("nets", {})
    runs = [b for b in raw.get("benchmarks", []) if bench_filter in b["name"]]
    medians = [b for b in runs if b.get("aggregate_name") == "median"]
    samples = {}
    for b in medians or [b for b in runs if b.get("run_type") != "aggregate"]:
        # Name is <filter>/<bits>/<mode>[/<net>].
        parts = b.get("run_name", b["name"]).split("/")
        net = int(parts[3]) if len(parts) > 3 else 0
        samples.setdefault((net, int(parts[1]), int(parts[2])), []).append(b)

    def prefix(net: int, bits: int) -> str:
        return nets[net].format(bits=bits) if net else str(bits)

    rows = {}
    for (net, bits, mode), group in sorted(samples.items()):
        ips = [b["items_per_second"] for b in group if "items_per_second" in b]
        allocs = [b["allocs_per_iter"] for b in group if "allocs_per_iter" in b]
        rows[f"{prefix(net, bits)}/{modes[mode]}"] = {
            "bits": bits,
            "mode": modes[mode],
            "real_time_ns": statistics.median(real_time_ns(b) for b in group),
            "items_per_second": statistics.median(ips) if ips else None,
            "allocs_per_iter": max(allocs) if allocs else None,
        }
    for (net, bits, mode) in samples:
        row = rows[f"{prefix(net, bits)}/{modes[mode]}"]
        ref = rows.get(f"{prefix(net, bits)}/reference")
        if ref and row["mode"] != "reference":
            row["speedup_vs_reference"] = ref["real_time_ns"] / row["real_time_ns"]
    return rows


def parse_named_rows(raw: dict) -> dict:
    """google-benchmark JSON -> {run name: row}, each row the median over
    processes of that process's median aggregate."""
    samples = {}
    for b in raw.get("benchmarks", []):
        if b.get("aggregate_name") == "median":
            samples.setdefault(b["run_name"], []).append(b)
    def natural(name):  # BM_Gemm/64 before BM_Gemm/128
        return [int(p) if p.isdigit() else p for p in name.split("/")]
    rows = {}
    for name, group in sorted(samples.items(), key=lambda kv: natural(kv[0])):
        ips = [b["items_per_second"] for b in group if "items_per_second" in b]
        allocs = [b["allocs_per_iter"] for b in group if "allocs_per_iter" in b]
        rows[name] = {
            "real_time_ns": statistics.median(real_time_ns(b) for b in group),
            "items_per_second": statistics.median(ips) if ips else None,
            "allocs_per_iter": max(allocs) if allocs else None,
        }
    return rows


def parse_serve_rows(raw: dict) -> dict:
    """bench_serve JSON -> rows keyed closed/pPwW/dD, open/Rrps/dD,
    latency/wW (submit + get), latency/wW/infer (the blocking infer),
    forward/bB and mixed/Rrps (D = the row's max_delay_us batch-fill
    hold)."""
    rows = {}
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        parts = b["name"].split("/")
        args = {}
        for p in parts[1:]:
            if ":" in p:
                k, v = p.split(":", 1)
                args[k] = int(v)
        if parts[0] == "BM_ServeClosedLoop":
            key = (f"closed/p{args['producers']}w{args['workers']}"
                   f"/d{args['max_delay_us']}")
        elif parts[0] == "BM_ServeOpenLoop":
            key = f"open/{args['offered_rps']}rps/d{args['max_delay_us']}"
        elif parts[0] == "BM_ServeForwardBatch":
            key = f"forward/b{args['batch']}"
        elif parts[0] == "BM_ServeMixedPriority":
            key = f"mixed/{args['offered_rps']}rps"
        elif parts[0] == "BM_ServeLatency":
            key = f"latency/w{args['workers']}"
            if args.get("infer"):
                key += "/infer"
        else:
            continue
        rows[key] = {
            "real_time_ns": real_time_ns(b),
            "items_per_second": b.get("items_per_second"),
            "p50_us": b.get("p50_us"),
            "p99_us": b.get("p99_us"),
            "shed_rate": b.get("shed_rate"),
            "allocs_per_iter": b.get("allocs_per_iter"),
        }
        if "us_per_sample" in b:
            rows[key]["us_per_sample"] = b["us_per_sample"]
        # Mixed-priority rows: per-class latency quantiles + shed split.
        for cls in ("low", "normal", "high"):
            for counter in (f"p50_{cls}_us", f"p99_{cls}_us", f"shed_{cls}"):
                if counter in b:
                    rows[key][counter] = b[counter]
    return rows


def parse_rows(raw: dict, suite: dict) -> dict:
    if "modes" in suite:
        rows = parse_mode_rows(raw, suite)
    elif suite.get("named"):
        rows = parse_named_rows(raw)
    else:
        rows = parse_serve_rows(raw)
    if not rows:
        sys.exit(f"no {suite['filter']} rows in benchmark output")
    return rows


def compare(rows: dict, snapshot: dict, tolerance: float,
            by_speedup: bool) -> bool:
    """Check every snapshot row against this run.  With by_speedup the
    gated ratio is baseline speedup_vs_reference / current (reference
    rows carry no speedup and are only reported); otherwise it is
    current real_time_ns / baseline.  Ratios above 1 + tolerance fail."""
    ok = True
    for key, base in snapshot.get("rows", {}).items():
        cur = rows.get(key)
        if cur is None:
            print(f"MISSING  {key}: present in snapshot, absent from this run")
            ok = False
            continue
        speed = cur.get("speedup_vs_reference")
        if by_speedup:
            base_speed = base.get("speedup_vs_reference")
            ratio = base_speed / speed if base_speed and speed else None
        else:
            ratio = cur["real_time_ns"] / base["real_time_ns"]
        if ratio is None:
            verdict = "INFO"
        elif ratio <= 1.0 + tolerance:
            verdict = "OK"
        else:
            verdict = "REGRESSED"
            ok = False
        extra = f"  {speed:6.2f}x vs ref" if speed else ""
        if by_speedup and base.get("speedup_vs_reference"):
            extra += f" (baseline {base['speedup_vs_reference']:6.2f}x)"
        p99 = cur.get("p99_us")
        if p99:
            extra += f"  p99 {p99:8.0f} us"
        shown = f"ratio {ratio:5.2f}" if ratio is not None else "not gated "
        print(
            f"{verdict:9} {key:20} {cur['real_time_ns'] / 1e6:9.3f} ms "
            f"(baseline {base['real_time_ns'] / 1e6:9.3f} ms, "
            f"{shown}){extra}"
        )
    for key in rows:
        if key not in snapshot.get("rows", {}):
            print(f"NEW      {key}: no baseline yet")
    return ok


def run_suite(name: str, args: argparse.Namespace, raw: dict | None) -> bool:
    suite = SUITES[name]
    snapshot_path = suite["snapshot"]
    current = build_context(args.build) if args.build else None
    if raw is None:
        raw = run_bench(args.build, suite)
    rows = parse_rows(raw, suite)

    print(f"== suite {name} ({suite['filter']}) ==")
    ok = True
    if snapshot_path.exists():
        snapshot = json.loads(snapshot_path.read_text())
        if comparable(current, snapshot):
            ok = compare(rows, snapshot, args.tolerance,
                         by_speedup="modes" in suite)
        elif args.check:
            ok = False
        else:
            print("the build context changed; not comparing")
    else:
        print(f"no snapshot at {snapshot_path}; this run becomes the baseline")

    if not args.check:
        bench = raw.get("context", {})
        packed = ({"igemm_packed_simd": bench["igemm_packed_simd"] == "true"}
                  if "igemm_packed_simd" in bench else {})
        snapshot_path.write_text(json.dumps({
            "benchmark": suite["filter"],
            "context": {
                **(current or {}),
                "num_cpus": bench.get("num_cpus"),
                "mhz_per_cpu": bench.get("mhz_per_cpu"),
                **packed,
                "benchmark_library_build_type": bench.get("library_build_type"),
            },
            "rows": rows,
        }, indent=2) + "\n")
        print(f"wrote {snapshot_path}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--build", type=pathlib.Path, help="CMake build dir to run from")
    ap.add_argument("--json", type=pathlib.Path,
                    help="pre-recorded benchmark JSON (its build context is "
                         "read from --build when given)")
    ap.add_argument("--suite", choices=[*SUITES, "all"], default="all",
                    help="which benchmark grid to run (default: all)")
    ap.add_argument("--check", action="store_true", help="compare only, never write")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed slowdown vs snapshot before failing "
                         "(fraction; of speedup_vs_reference for the igemm "
                         "and engine suites)")
    args = ap.parse_args()

    names = list(SUITES) if args.suite == "all" else [args.suite]
    raw = None
    if args.json:
        if args.suite == "all":
            ap.error("--json holds one recorded grid; name it with --suite")
        raw = json.loads(args.json.read_text())
    elif not args.build:
        ap.error("one of --build or --json is required")

    ok = True
    for name in names:
        ok = run_suite(name, args, raw) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
