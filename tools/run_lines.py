#!/usr/bin/env python3
"""Lines of ``src/molfuse`` that no run executes.

    python3 tools/run_lines.py [--root CHECKOUT]

In one process, with every line executed in a ``src/molfuse`` frame
recorded, this runs at small model sizes:

- ``molfuse train`` for all seven strategies on both bundled CSVs, and
  with MLM pretraining on ``data/bbbp.csv``;
- ``molfuse train --config`` on the ``config.txt`` snapshot of the first
  of those runs, and on two files it rejects: one with a comment line, a
  blank line and an unknown key, one with a line that has no ``=``;
- the ``max``, ``concat`` and ``gate`` fusion ops for the three strategies
  that fuse, and ``--frozen-mpnn``, ``--message-steps 0`` and
  ``--workers 2``;
- ``molfuse ablate gnn`` and ``molfuse ablate splits``;
- ``molfuse profile`` and ``molfuse profile --synthetic-seq-scaling``;
- ``molfuse parse --file`` over every bundled SMILES, ``molfuse parse
  <one SMILES> --verbose`` and ``molfuse gradcheck``;
- ``perfbench/worker.py --smoke`` for each benchmark workload.

It then prints, per module, each line of a compiled code object that none
of them executed, and the count. The seeds of ``--workers 2`` train in
spawned processes, which import this script again as ``__mp_main__``:
each child traces itself and, when it exits, writes its lines into the
run's temporary directory, named after the parent's pid. So the run
itself must stay under ``__main__``. ``--root`` picks the source checkout
whose ``src/`` and ``perfbench/`` are imported (default: the one holding
this script). Each run's exit code and seconds go to stderr; the whole
takes about 2 minutes on 2 cores.
"""

import argparse
import atexit
import contextlib
import csv
import glob
import importlib.util
import json
import os
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
# two epochs and a patience of 1, so that early stopping can end a run
SMALL = ["--seeds", "0", "--max-epochs", "2", "--patience", "1",
         "--batch-size", "64", "--hidden-dim", "8", "--num-layers", "1",
         "--num-heads", "2", "--ffn-dim", "16", "--message-steps", "1",
         "--edge-hidden", "8"]
FUSING = ("late-fusion", "mpnn2lm", "lm2mpnn")


def start_tracing(package_dir):
    """Record (filename, line) of every line run in a frame of a file
    under ``package_dir``; returns the set it fills."""
    prefix = package_dir + os.sep
    lines = set()

    def local(frame, event, arg):
        lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local(frame, event, arg)
        return None

    sys.settrace(on_call)
    return lines


def executable_lines(path):
    """Line numbers of every instruction in the module and its nested code."""
    with open(path) as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def cli_runs(root, work):
    """(label, argv) of every ``molfuse`` command line to run."""
    from molfuse.integration import STRATEGIES

    esol = ["--dataset", os.path.join(root, "data", "esol.csv")]
    bbbp = ["--dataset", os.path.join(root, "data", "bbbp.csv"),
            "--task", "binary-classification"]
    out = os.path.join(work, "out")
    small = SMALL + ["--out", out]
    runs = [(f"train {s} {name}", ["train", "--strategy", s, *data, *small])
            for name, data in (("esol", esol), ("bbbp", bbbp))
            for s in STRATEGIES]
    # second, so that it reads the first run's snapshot before a later
    # run overwrites it
    runs.insert(1, ("train --config <snapshot>",
                    ["train", "--config", os.path.join(out, "config.txt"),
                     "--out", out]))
    for name, text in (("unknown-key", "# comment\n\nbogus = 1\n"),
                       ("no-equals", "seeds 0\n")):
        path = os.path.join(work, f"{name}.txt")
        with open(path, "w") as fh:
            fh.write(text)
        runs.append((f"train --config <{name}>", ["train", "--config", path]))
    runs.append(("train lm-baseline bbbp --mlm-pretrain",
                 ["train", *bbbp, *small, "--mlm-pretrain", "--mlm-epochs", "1"]))
    runs += [(f"train {s} --fusion {op}",
              ["train", "--strategy", s, *esol, *small, "--fusion", op])
             for s in FUSING for op in ("max", "concat", "gate")]
    runs += [(f"train {s} {' '.join(flags)}",
              ["train", "--strategy", s, *esol, *small, *flags])
             for s in ("contrast-node", "lm2mpnn")
             for flags in (["--frozen-mpnn"], ["--message-steps", "0"])]
    runs.append(("train mpnn-baseline --workers 2",
                 ["train", "--strategy", "mpnn-baseline", *esol, *small,
                  "--seeds", "0 7", "--workers", "2"]))
    runs += [(f"ablate {kind}", ["ablate", kind, *esol, *small])
             for kind in ("gnn", "splits")]
    runs.append(("profile", ["profile", *esol, *small, "--epochs", "1",
                             "--warmup", "0"]))
    runs.append(("profile --synthetic-seq-scaling",
                 ["profile", "--synthetic-seq-scaling", "--base-len", "16",
                  "--repeats", "1"]))
    smiles = os.path.join(work, "smiles.txt")
    with open(smiles, "w") as fh:
        for data in (esol, bbbp):
            with open(data[1], newline="") as src:
                fh.writelines(row["smiles"] + "\n" for row in csv.DictReader(src))
    runs.append(("parse --file", ["parse", "--file", smiles]))
    runs.append(("parse --verbose", ["parse", "C1=CC=C(C=C1)O", "--verbose"]))
    runs.append(("gradcheck", ["gradcheck", "--trials", "1"]))
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=os.path.dirname(HERE),
                        help="source checkout to import (default: this one)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    package = os.path.join(root, "src", "molfuse")
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    lines = start_tracing(package)

    from molfuse import cli
    import worker
    from workloads import WORKLOADS, write_inputs

    with tempfile.TemporaryDirectory(prefix=work_prefix(os.getpid())) as work:
        runs = [(label, lambda a=a: cli.main(a)) for label, a in cli_runs(root, work)]
        for name, workload in WORKLOADS.items():
            csv_path = os.path.join(work, f"{name}.csv")
            write_inputs(workload.smoke(), 0, csv_path)
            runs.append((f"perfbench {name} --smoke", lambda n=name, c=csv_path:
                         worker.main(["--workload", n, "--seed", "0",
                                      "--seconds", "0", "--csv", c,
                                      "--out", work, "--smoke"])))
        for label, run in runs:
            started = time.perf_counter()
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                code = run()
            print(f"{label}: exit {code} ({time.perf_counter() - started:.0f} s)",
                  file=sys.stderr, flush=True)
        sys.settrace(None)
        for path in glob.glob(os.path.join(work, "lines-*.json")):
            with open(path) as fh:
                lines.update(map(tuple, json.load(fh)))

    total = 0
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        ran = {line for name, line in lines if name == path}
        missed = sorted(executable_lines(path) - ran)
        total += len(missed)
        with open(path) as fh:
            source = fh.read().splitlines()
        print(f"{os.path.relpath(path, root)}: {len(missed)} lines no run executed")
        for line in missed:
            print(f"  {line:>4}  {source[line - 1].strip()}")
    print(f"total: {total} lines no run executed")
    return 0


def work_prefix(pid):
    """Name prefix of the temporary directory of the run in process ``pid``."""
    return f"run-lines-{pid}-"


def trace_child():
    """In a child the run spawned: trace the package it imports, and write
    its lines into the run's directory when it exits."""
    package = os.path.dirname(importlib.util.find_spec("molfuse").origin)
    lines = start_tracing(package)

    def dump():
        sys.settrace(None)
        work, = glob.glob(os.path.join(tempfile.gettempdir(),
                                       work_prefix(os.getppid()) + "*"))
        path = os.path.join(work, f"lines-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(sorted(lines), fh)

    atexit.register(dump)


if __name__ == "__mp_main__":
    trace_child()

if __name__ == "__main__":
    sys.exit(main())
