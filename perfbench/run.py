#!/usr/bin/env python3
"""Builds and runs the sl2 benchmark; prints one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds two binaries from source with
cargo (offline): the plain one, and the traced one (feature `traced`,
which arms the sl2_obs probes) under `<target>/traced`, where
`<target>` is `$CARGO_TARGET_DIR` or `.bench_build`.

--trace 0 runs the plain binary on the workload's own part alone and
reports the end-to-end metrics: `setup_s`, `ops_s` and `p50_us`.
--trace 1 runs every part, whatever the workload, because the
per-layer metrics cover every layer: the plain binary, then the traced
one on the same seed. It reports the traced run's per-layer metrics
plus `overhead.<figure>`: the traced minus the untraced value of each
per-part figure in OVERHEAD. The traced run writes its request spans
to `<target>/spans/`.

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits non-zero, printing no result, if the build or a run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The binary's other two parts, svc_open and checker_corpus, are
# measured in traced runs only: their figures follow the host by more
# than any bound between sets of runs (see NOTES.md).
WORKLOADS = ["svc_call", "obj_hot"]
# Per-part figures both binaries report; the traced run's cost on each
# is reported as `overhead.<figure>`.
OVERHEAD = ["setup_s.all", "lat_p50_us.r50k", "lat_p90_us.r50k",
            "lat_p50_us.r200k", "lat_p90_us.r200k", "capacity_ops_s",
            "rtt_p50_us", "rtt_p99_us", "ops_s.combining2",
            "ops_s.sharded2", "verify_s.tower", "verify_s.rest"]
# One run of the binary: the measuring time plus set-up and drains.
RUN_TIMEOUT_S = 150


def build(target, traced):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml"),
           "--target-dir", str(target)]
    if traced:
        cmd += ["--features", "traced"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    return target / "release" / "sl2_perfbench"


def run(binary, part, args, trace, extra=()):
    cmd = [str(binary), "--part", part, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), *extra]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                         timeout=RUN_TIMEOUT_S, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    # Build both variants on every run so that whichever runs first
    # pays the build and every later run starts at once.
    plain_bin = build(target, traced=False)
    traced_bin = build(target / "traced", traced=True)

    if not args.trace:
        plain = run(plain_bin, args.workload, args, 0)
        result = plain["end_to_end"]
        base = plain
    else:
        plain = run(plain_bin, "all", args, 0)
        traced = run(traced_bin, "all", args, 1,
                     ["--spans", str(target / "spans")])
        result = dict(traced["per_layer"])
        for name in OVERHEAD:
            m = traced["per_layer"][name]
            result["overhead." + name] = {
                "value": m["value"] - plain["per_layer"][name]["value"],
                "unit": m["unit"],
            }
        base = {k: plain[k] + traced[k] for k in ("attempted", "failed")}
        base["correct"] = plain["correct"] and traced["correct"]
    print(json.dumps({
        "correct": base["correct"],
        "attempted": base["attempted"],
        "failed": base["failed"],
        "metrics": result,
    }))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
