"""Identity check: do two trees compute the same results on the benchmark's ops?

Run from the root of a checkout:

    python tools/identity.py --base REV [--seeds 101 102]

REV is unpacked with ``git archive`` into a git-ignored ``.bench-identity-*``
directory at the root of the checkout, which is removed at the end.  One
child process per tree, REV's ``src`` first and then the checkout's, runs
every op of the three workloads of ``bench/workloads.py`` (the checkout's,
imported read-only) at each seed: ``svd-sweep`` and ``small-batch`` ops
through the public API, and ``cli-pipeline`` ops as the result document
that ``dualsvd decompose`` writes.  BLAS is pinned to one thread.

The parent then compares the two sides op by op: the factors with
``np.array_equal`` (dtype included), the existence answer and the error
type, and the documents byte for byte.  Each op that differs gets one line:
its largest difference over the factor's norm (max|a - b| / max|a|, over
both parts) and the ``bench/verify.py`` defect on each side.  A summary per
workload and kind follows.  The exit code is 0 when every op is identical
and 1 otherwise.  Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import io
import os
import pickle
import shutil
import subprocess
import sys
import tarfile
import tempfile
from collections import defaultdict

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "bench")
WORKLOADS = ("svd-sweep", "small-batch", "cli-pipeline")
CLI_KINDS = {
    "svd-T": "t-svd", "svd-star": "star-svd", "t_spectral": "t-spectral",
    "star_spectral": "star-spectral", "t_polar": "t-polar", "pinv_t": "pinv",
}


# -- child: run one tree ------------------------------------------------------


def _document(op, tols, cli, fileformat, verify):
    """The decompose document of one op, as bytes, with its factors and
    their defect."""
    kind = CLI_KINDS[op.kind]
    doc = cli.build_result(op.m, kind, *tols)
    fac = None
    if doc["outcome"] != "nonexistent":
        fac = {}
        for name, obj in doc["factors"].items():
            a = fileformat.obj_to_matrix(obj)
            fac[name] = (a.std, a.inf)
    defect = verify.verify(op.kind, (op.m.std, op.m.inf), fac)[1]
    return "doc", (fileformat.dumps(doc).encode(), fac), defect


def _result(op, workloads, verify):
    r = workloads.call(op.kind, op.m)
    fac = workloads.factors(op.kind, r)
    return "ok", fac, verify.verify(op.kind, (op.m.std, op.m.inf), fac)[1]


def child(src: str, out: str, seeds: list) -> int:
    sys.path[:0] = [src, BENCH]
    import workloads
    import verify
    from dualsvd import DualLinAlgError, cli, fileformat
    from dualsvd.linalg import DEFAULT_CLUSTER_TOL, DEFAULT_SPLIT_TOL

    tols = DEFAULT_SPLIT_TOL, DEFAULT_CLUSTER_TOL  # the only values build_result takes
    results = {}
    for seed in seeds:
        for w in WORKLOADS:
            for i, op in enumerate(workloads.make_ops(w, seed)):
                try:
                    if w == "cli-pipeline":
                        entry = _document(op, tols, cli, fileformat, verify)
                    else:
                        entry = _result(op, workloads, verify)
                except DualLinAlgError as exc:
                    entry = "error", type(exc).__name__, None
                results[w, seed, i] = (op.kind, op.n, op.regime) + entry
    with open(out, "wb") as f:
        pickle.dump(results, f)
    return 0


# -- parent: unpack, run both trees, compare -----------------------------------


def unpack(rev: str, dest: str) -> str:
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return os.path.join(dest, "src")


def run_tree(src: str, out: str, seeds: list) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.abspath(__file__), "--child", src, out]
    subprocess.run(cmd + ["--seeds", *map(str, seeds)], check=True, env=env, cwd=ROOT)
    with open(out, "rb") as f:
        return pickle.load(f)


def largest_difference(fa: dict, fb: dict) -> float:
    """max over the factors of max|a - b| / max|a|, over both parts."""
    import numpy as np

    worst = 0.0
    for name, parts in fa.items():
        diff = max(np.abs(a - b).max(initial=0.0) for a, b in zip(parts, fb[name]))
        size = max(np.abs(a).max(initial=0.0) for a in parts)
        worst = max(worst, diff / size if size else (float("inf") if diff else 0.0))
    return worst


def same_factors(fa, fb) -> bool:
    """Equal factor names, dtypes and values; both None for a nonexistent X."""
    import numpy as np

    if fa is None or fb is None:
        return fa is fb
    return fa.keys() == fb.keys() and all(
        a.dtype == b.dtype and np.array_equal(a, b)
        for name in fa for a, b in zip(fa[name], fb[name])
    )


def _verdict(status, payload):
    """One side's answer, and its factors (None for an error or no X)."""
    if status == "error":
        return f"error {payload}", None
    fac = payload[1] if status == "doc" else payload
    return ("nonexistent" if fac is None else "exists"), fac


def compare(base: dict, new: dict) -> int:
    """Print one line per differing op and a summary; return the number of
    differing ops."""
    # (workload, kind) -> [ops, differing, verdicts differing, largest difference]
    stats = defaultdict(lambda: [0, 0, 0, 0.0])
    for key in sorted(base):
        kind, n, regime, status, payload, defect = base[key]
        status_b, payload_b, defect_b = new[key][3:]
        row = stats[key[0], kind]
        row[0] += 1
        if status == status_b == "doc":
            same = payload[0] == payload_b[0]
        elif status == status_b == "ok":
            same = same_factors(payload, payload_b)
        else:
            same = (status, payload) == (status_b, payload_b)
        if same:
            continue
        row[1] += 1
        (verdict, fa), (verdict_b, fb) = _verdict(status, payload), _verdict(status_b, payload_b)
        where = f"{key[0]} seed {key[1]} op {key[2]} {kind} n={n} {regime}"
        if verdict != verdict_b:
            row[2] += 1
            print(f"{where}: {verdict} -> {verdict_b}")
            continue
        diff = 0.0 if fa is None else largest_difference(fa, fb)
        row[3] = max(row[3], diff)
        print(f"{where}: largest difference {diff:.2e} of the factor's norm, "
              f"defect {defect:.2e} -> {defect_b:.2e}")
    print("# workload kind: ops, differing, existence or error differing, largest difference")
    for (w, kind), (ops, differing, verdicts, worst) in sorted(stats.items()):
        print(f"# {w} {kind}: {ops}, {differing}, {verdicts}, {worst:.2e}")
    total = sum(row[1] for row in stats.values())
    print(f"# {total} of {len(base)} ops differ")
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="the git revision to compare the checkout with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[101, 102])
    parser.add_argument("--child", nargs=2, metavar=("SRC", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return child(*args.child, args.seeds)
    if not args.base:
        parser.error("--base is required")
    work = tempfile.mkdtemp(prefix=".bench-identity-", dir=ROOT)
    try:
        base_src = unpack(args.base, os.path.join(work, "base"))
        base = run_tree(base_src, os.path.join(work, "base.pkl"), args.seeds)
        new = run_tree(os.path.join(ROOT, "src"), os.path.join(work, "new.pkl"), args.seeds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if compare(base, new) else 0


if __name__ == "__main__":
    sys.exit(main())
