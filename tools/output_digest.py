"""Print one sha256 per benchmark workload over the fingerprints of its first inputs.

    python3 tools/output_digest.py --workload all --seed 1 --inputs 20 [--root DIR]

For each input 0 .. N-1 of a workload, ``DIR/perfbench/workloads.py`` makes
the input, runs the op, checks it against its oracle and fingerprints the
output; the digest hashes the fingerprints in input order, each behind its
length.  ``DIR/src`` is put first on the path, so the digest is that
checkout's.  Two checkouts that print equal lines for a seed produced
byte-identical outputs on those inputs.  Each line is one JSON object
{"workload", "seed", "inputs", "sha256"}.  ``perfbench`` is only read: no
bytecode is written.  An op that raises or fails its oracle ends the run
with that error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("analyze", "certify", "transport")


def load_workloads(root):
    """``WORKLOADS`` of ``root/perfbench/workloads.py``, importing deltachain from ``root/src``."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = "1"  # as the benchmark runs, before numpy is first imported
    sys.dont_write_bytecode = True
    src, bench = os.path.join(root, "src"), os.path.join(root, "perfbench")
    sys.path[:0] = [src, bench]
    import deltachain
    import workloads

    where = os.path.realpath(deltachain.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"error: deltachain imported from {where}, not from {src}")
    return workloads.WORKLOADS


def digest(cls, seed, inputs):
    """sha256 hex of the fingerprints of inputs 0 .. inputs-1 of one workload class."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix=f"digest-{cls.name}-") as work_dir:
        workload = cls(seed, work_dir)
        for index in range(inputs):
            inp = workload.make_input(index)
            try:
                out = workload.run(inp)
                workload.check(inp, out)
                fp = workload.fingerprint(inp, out)
            finally:
                workload.cleanup(inp)
            h.update(len(fp).to_bytes(8, "little"))
            h.update(fp)
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=int, required=True, help="inputs 0 .. N-1")
    parser.add_argument("--root", default=ROOT, help="checkout whose src and perfbench are read")
    args = parser.parse_args(argv)
    if args.inputs < 1:
        parser.error("--inputs must be at least 1")
    classes = load_workloads(os.path.abspath(args.root))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        sha = digest(classes[name], args.seed, args.inputs)
        line = {"workload": name, "seed": args.seed, "inputs": args.inputs, "sha256": sha}
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
