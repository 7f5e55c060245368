"""Child processes started by ``bench/run.py``; not meant to be run by hand.

    python3 bench/child.py probe WORKLOAD
        Import dualsvd and run one small warm-up op of the workload's kind.
        The parent times the whole process as one set-up sample.
    python3 bench/child.py cli STATS ARG...
        Run ``dualsvd ARG...`` with layer spans installed and write the span
        totals to the file STATS as JSON.  Exits with the CLI's exit code.

The parent puts the checkout's ``src`` on PYTHONPATH and pins BLAS to one
thread in the environment.
"""

import json
import sys

import numpy as np

# Size of the warm-up op, a T-SVD of a fixed generic matrix.
WARMUP_N = {"svd-sweep": 8, "small-batch": 3, "cli-pipeline": 8}


def warmup_matrix(n: int):
    from dualsvd import DualMatrix

    rng = np.random.default_rng(0)
    return DualMatrix(rng.standard_normal((n, n)), rng.standard_normal((n, n)))


def probe(workload: str) -> int:
    m = warmup_matrix(WARMUP_N[workload])
    if workload == "cli-pipeline":
        from dualsvd import cli, fileformat

        fileformat.dumps(cli.build_result(m, "t-svd", 1e-8, 1e-8))
    else:
        import workloads

        workloads.call("svd-T", m)
    return 0


def traced_cli(stats_path: str, argv: list) -> int:
    import dualsvd.cli
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = dualsvd.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(stats_path, "w") as f:
            json.dump(tracer.dump(), f)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "probe":
        sys.exit(probe(sys.argv[2]))
    sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
