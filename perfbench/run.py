#!/usr/bin/env python3
"""molfuse training benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload large-graph-mpnn --seed 0 \\
        --seconds 25 --trace 0

Run from the root of a source checkout. Generates the workload's CSV from
the seed, runs the training protocol on it in a fresh process, checks the
outputs and prints the environment fingerprint, then, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The full record goes to
``perfbench/out/results/``.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, describe_inputs, write_inputs  # noqa: E402

# A run must end within 180 s; the worker gets what is left after input
# generation, less a margin for printing and clean-up.
RUN_LIMIT_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s",
                    "train_mol_per_s": "molecules/s",
                    "eval_mol_per_s": "molecules/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one epoch, to try the output form")
    return parser.parse_args(argv)


def main(argv=None):
    started = time.monotonic()
    args = parse_args(argv)
    if args.seed < 0:
        sys.exit("run.py: --seed must be non-negative")
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "molfuse", "__init__.py")):
        sys.exit(f"run.py: no molfuse sources under {src}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, src)

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_root = os.path.join(HERE, "out")
    work = os.path.join(out_root, "work", f"{tag}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        csv_path = os.path.join(work, "inputs.csv")
        write_inputs(workload, args.seed, csv_path)
        inputs = describe_inputs(workload, csv_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--csv", csv_path, "--out", work]
        if args.smoke:
            cmd.append("--smoke")
        budget = RUN_LIMIT_S - (time.monotonic() - started)
        try:
            proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True,
                                  text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            sys.exit(f"run.py: worker exceeded {budget:.0f} s")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"run.py: worker exited with {proc.returncode}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, inputs=inputs)
    results = os.path.join(out_root, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    if args.trace:
        from tracing import metric_units
        units = metric_units()
    else:
        units = END_TO_END_UNITS
    metrics = {name: {"value": record["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"fingerprint": record["fingerprint"]}))
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
