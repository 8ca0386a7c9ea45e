"""Rewrite perfbench/reference.txt: the SHA-256 of every output file the
workloads emit, at both sizes, with lift-verify-char at the default seed.

    python3 perfbench/record_reference.py

Run it from the checkout root, and only at a commit whose outputs are
known to be right: the benchmark then counts every output that differs
from these digests as a failed operation.  The verdict checks still apply
while recording, and any failure aborts it.
"""

import sys

import run


def main() -> int:
    digests: dict[str, str] = {}
    for size in run.SIZES:
        for workload in run.WORKLOADS:
            bench = run.Run(reference={})
            try:
                run.execute(bench, workload, size, run.DEFAULT_SEED, seconds=0, trace=False)
            finally:
                bench.close()
            if bench.failed:
                print("\n".join(bench.problems), file=sys.stderr)
                return 1
            for key, digest in bench.digests.items():
                if digests.setdefault(key, digest) != digest:
                    print(f"{key}: workloads disagree", file=sys.stderr)
                    return 1
    with open(run.REFERENCE, "w", encoding="ascii") as fh:
        fh.writelines(f"{key} {digests[key]}\n" for key in sorted(digests))
    print(f"{len(digests)} digests written to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
