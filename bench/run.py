"""trisub benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/trisub
and BENCHMARK.json).  Each workload runs in fresh single-threaded
interpreters (worker.py): several that only import the program, for
setup_s, and one that runs the workload.  With --trace 0 the last line of
stdout holds the end_to_end metrics of BENCHMARK.json, with --trace 1 its
per_layer metrics; the full record goes to bench/results/.  See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# setup_s is the median of fresh imports: SETUP_EACH_SIDE before the
# workload's process, its own, and SETUP_EACH_SIDE after it, so that they
# meet the machine in different states.  One untimed import comes first
# and compiles the sources.
SETUP_EACH_SIDE = 3
# Hard limit on one worker process, in seconds.
WORKER_TIMEOUT = 150


def worker(workdir, workload, seed, seconds, mode):
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--mode", mode, "--workdir", workdir]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "trisub", "__init__.py")):
        raise SystemExit(f"no trisub sources under {os.path.join(ROOT, 'src')}")

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        started = time.time()
        setup_cal = []

        def setup():
            res = worker(workdir, args.workload, args.seed, 0, "setup")
            setup_cal.append(res["setup_cal_ms"])
            return res["setup_s"]

        setup()  # compiles, untimed
        setups = [setup() for _ in range(SETUP_EACH_SIDE)]
        res = worker(workdir, args.workload, args.seed, args.seconds,
                     "trace" if args.trace else "run")
        setups += [setup() for _ in range(SETUP_EACH_SIDE)] + [res["setup_s"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        wanted = spec["per_layer"]
        have = res["layers"]
    else:
        wanted = spec["end_to_end"]
        have = {"setup_s": (statistics.median(setups), "s"),
                "ops_per_s": (res["ops_per_s"], "1/s"),
                "op_p50_ms": (res["op_p50_ms"], "ms"),
                "peak_rss_mb": (res["peak_rss_mb"], "MB")}
    metrics = {}
    for m in wanted:
        value, unit = have[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"metric {m['name']} is in {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": sys.version.split()[0],
              "wall_s": time.time() - started, "setup_samples_s": setups, "setup_cal_ms": setup_cal,
              "worker": res, "metrics": metrics}
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    correct = res["error_count"] == 0
    for err in res["errors"]:
        sys.stderr.write(f"check failed: {err}\n")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
