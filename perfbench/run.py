"""The sklift benchmark: one workload, run in fresh interpreters, timed and
checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]

Run it from the root of a checkout that holds `src/sklift` and
`BENCHMARK.json`.  perfbench/README.md describes the workloads and the
metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment (Python version, CPUs, commit, digest of the sources).

Every process the benchmark starts is a `worker.py` child, one at a time,
with a private SK_CACHE_DIR and output directory under `.perfbench_work/`
in the checkout, which is removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE = os.path.join(HERE, "reference.txt")
WORKER = os.path.join(HERE, "worker.py")
CACHE_FILE = "cohen_h.txt"  # the file name CohenCache keeps in SK_CACHE_DIR
DEFAULT_SEED = 1  # lift-verify-char has reference digests for this seed only
SETUP_PROBES = 7  # extra import-only children per run, for the set-up median
PROCESS_TIMEOUT = 150

WORKLOADS = ("pipeline-cold", "pipeline-warm", "lift-verify-char", "hecke-identity")
# input sizes: pipeline (nmax, mmax), char (nmax, mmax), hecke (max level, max m and n)
SIZES = {
    "full": {"pipeline": (120, 10), "char": (240, 12), "hecke": (8, 16)},
    "tiny": {"pipeline": (24, 4), "char": (24, 4), "hecke": (2, 4)},
}
PIPELINE_FORMS = ("phi10_1", "phi12_1")
# E4_1 and E6_1, the index-1 factors of both forms, read H(3, .) and H(5, .)
PIPELINE_H_WEIGHTS = (3, 5)
CHAR_INPUTS = (  # name, weight, level, character
    ("order4", 9, 5, "table:zeta^0/1,zeta^1/4,zeta^3/4,zeta^2/4,0"),
    ("kron-3", 9, 3, "kronecker:-3"),
)


class BenchError(Exception):
    """The benchmark itself cannot go on; no result is printed."""


def clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child's ready stamp
    # can be set against the parent's start stamp
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def read_text(path: str) -> str | None:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError):
        return None


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def count_lines(path: str) -> int:
    text = read_text(path)
    return 0 if text is None else text.count("\n")


def primes_up_to(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, isqrt(p) + 1))]


def relation_instances(n_max: int, m_max: int) -> int:
    """Instances `sklift verify --mode=all` enumerates on an SKSF box: the
    classical family, the symmetric and p-local families at every prime up
    to max(n_max, m_max), each over every box cell, and the singular law
    at l = 1..n_max."""
    primes = primes_up_to(max(n_max, m_max))
    return tracing.box_cells(n_max, m_max) * (1 + 2 * len(primes)) + n_max


# ---------------------------------------------------------------------------
# Operations, repetitions and the run that checks them
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One `sklift` command line and what it must produce."""

    key: str  # reference-digest key of the output file
    argv: list[str]
    out: str
    rc: int = 0
    head: str = ""  # the output must start with this
    kind: str = ""  # "verify" (relation report) or "identity" (Hecke identity)
    box: tuple[int, int] = (0, 0)  # (n_max, m_max) of the SKSF a verify reads


@dataclass
class Rep:
    """One repetition of a workload's job list."""

    traced: bool
    seconds: float = 0.0
    peak_rss_kb: int = 0
    spans: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)


class Run:
    """Starts the workers and checks every op's exit code, output start and
    output digest, against the reference and against earlier repetitions."""

    def __init__(self, reference: dict[str, str]):
        os.makedirs(WORK, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
        self.reference = reference
        self.digests: dict[str, str] = {}
        self.setup: list[float] = []
        self.reps: list[Rep] = []
        self.attempted = self.failed = 0
        self.checked = self.enumerated = 0
        self.problems: list[str] = []
        self._serial = 0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run's directory is still there

    def process(self, ops: list[Op], rep: Rep | None = None, cache_dir: str | None = None) -> None:
        """Run ops in one fresh worker and add its figures to rep."""
        self._serial += 1
        tag = os.path.join(self.dir, f"p{self._serial}")
        cache_dir = cache_dir or tag + "-cache"
        cache = os.path.join(cache_dir, CACHE_FILE)
        lines_before = count_lines(cache)
        spans = tag + ".spans" if rep is not None and rep.traced else None
        with open(tag + ".spec", "w", encoding="utf-8") as fh:
            json.dump({"ops": [op.argv for op in ops], "spans": spans}, fh)
        env = dict(os.environ, PYTHONPATH=SRC, SK_CACHE_DIR=cache_dir, PYTHONHASHSEED="0",
                   PYTHONPYCACHEPREFIX=os.path.join(self.dir, "pycache"))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        start = clock()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, tag + ".spec", tag + ".result"],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=PROCESS_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker ran over {PROCESS_TIMEOUT} s") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n"
                             + proc.stderr.decode(errors="replace")[-2000:])
        with open(tag + ".result", encoding="utf-8") as fh:
            result = json.load(fh)
        self.setup.append(result["ready"] - start)
        for op, outcome in zip(ops, result["ops"]):
            self.check(op, outcome)
        if rep is None:
            return
        rep.seconds += sum(outcome["seconds"] for outcome in result["ops"])
        rep.peak_rss_kb = max(rep.peak_rss_kb, result["peak_rss_kb"])
        rep.counts.update(result["counts"])
        rep.counts["numtheory.h_cache.misses"] += count_lines(cache) - lines_before
        if os.path.exists(cache):
            rep.counts["numtheory.h_cache.file_bytes"] += os.path.getsize(cache)
        if spans:
            for name, entry in tracing.summarize(spans).items():
                into = rep.spans.setdefault(name, Counter())
                into.update(entry)

    def check(self, op: Op, outcome: dict) -> None:
        self.attempted += 1
        text = read_text(op.out)
        if op.kind == "verify":
            self.enumerated += relation_instances(*op.box)
            tail = (text or "").rstrip("\n").rsplit("\n", 1)[-1]
            skipped = tail.removeprefix("SKIPPED=")
            if skipped != tail and skipped.isdigit():
                self.checked += relation_instances(*op.box) - int(skipped)
        elif op.kind == "identity":
            self.enumerated += 1
            self.checked += outcome["rc"] in (0, 1)
        problem = None
        if outcome["rc"] != op.rc:
            problem = f"exit code {outcome['rc']}, expected {op.rc}"
            if outcome["error"]:
                problem += "\n" + outcome["error"]
        elif text is None or not text.startswith(op.head):
            problem = f"output does not start with {op.head!r}"
        else:
            digest = sha256(text)
            if self.digests.setdefault(op.key, digest) != digest:
                problem = "output differs from an earlier repetition"
            elif self.reference.get(op.key, digest) != digest:
                problem = "output digest differs from the reference"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{op.key}: {problem}")


# ---------------------------------------------------------------------------
# Workloads: each plan prepares its inputs from the seed and returns the
# function that runs one repetition
# ---------------------------------------------------------------------------

def plan_pipeline(run: Run, size: str, seed: int, warm: bool):
    """gen -> lift -> verify --mode=all for phi10_1 and phi12_1 (the seed
    orders them), each gen with a private SK_CACHE_DIR: empty when cold,
    a copy of a cache filled before timing when warm."""
    nmax, mmax = SIZES[size]["pipeline"]
    forms = list(PIPELINE_FORMS)
    random.Random(seed).shuffle(forms)
    filled = None
    if warm:
        fill_dir = os.path.join(run.dir, "filled-cache")
        ops = []
        for r in PIPELINE_H_WEIGHTS:
            out = os.path.join(run.dir, f"cohen-r{r}.txt")
            argv = ["cohen", f"--r={r}", f"--nmax={4 * nmax}", f"--out={out}"]
            ops.append(Op(f"{size}/pipeline/cohen-r{r}", argv, out, head=f"H {r} 0 "))
        run.process(ops, cache_dir=fill_dir)
        filled = os.path.join(fill_dir, CACHE_FILE)

    def repetition(rep: Rep, rep_dir: str) -> None:
        for form in forms:
            key = f"{size}/pipeline/{form}"
            base = os.path.join(rep_dir, form)
            cache_dir = base + "-cache"
            os.makedirs(cache_dir)
            if filled is not None:
                shutil.copy(filled, cache_dir)
            argv = ["gen", f"--form={form}", f"--nmax={nmax}", f"--out={base}.skjf"]
            run.process([Op(key + ".skjf", argv, base + ".skjf", head="SKJF 1")], rep, cache_dir)
            argv = ["lift", f"--in={base}.skjf", f"--mmax={mmax}", f"--out={base}.sksf"]
            run.process([Op(key + ".sksf", argv, base + ".sksf", head="SKSF 1")], rep)
            argv = ["verify", f"--in={base}.sksf", "--mode=all", f"--out={base}.report"]
            run.process([Op(key + ".report", argv, base + ".report", head="VERDICT=PASS",
                            kind="verify", box=(nmax // mmax, mmax))], rep)

    return repetition


def orbit_constant_skjf(weight: int, level: int, chi: str, n_max: int, rng: random.Random) -> str:
    """Index-1 cuspidal SKJF text whose coefficient c(n, r) depends only on
    the discriminant 4n - r^2 and vanishes at 0, the shape of a Jacobi
    cusp form's coefficients; its lift satisfies every Maass relation."""
    value = {0: 0}
    lines = ["SKJF 1", f"k={weight} m=1 N={level} chi={chi} nmax={n_max} cusp=1"]
    for n in range(n_max + 1):
        bound = isqrt(4 * n)
        for r in range(-bound, bound + 1):
            disc = 4 * n - r * r
            if disc not in value:
                value[disc] = rng.randint(-60, 60)
            lines.append(f"{n} {r} {value[disc]}/1")
    return "\n".join(lines) + "\n"


def perturbation_cell(n_box: int, rng: random.Random) -> tuple[int, int, int]:
    """A cell (2j, r, 1) or (j, r, 2) with r^2 <= 4j and 2j <= n_box: the
    classical, symmetric and p-local families each have an in-box
    instance through it, so a verifier that checks them must see it."""
    cells = []
    for j in range(1, n_box // 2 + 1):
        for r in range(-isqrt(4 * j), isqrt(4 * j) + 1):
            cells += [(2 * j, r, 1), (j, r, 2)]
    return rng.choice(cells)


def perturb(text: str, cell: tuple[int, int, int]) -> str:
    """SKSF text with 1 added to the coefficient at cell (to the first
    power-basis coordinate of a cyclotomic value)."""
    prefix = "%d %d %d " % cell
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if line.startswith(prefix):
            coords = line[len(prefix):].split(",")
            bumped = Fraction(coords[0]) + 1
            coords[0] = f"{bumped.numerator}/{bumped.denominator}"
            lines[i] = prefix + ",".join(coords)
            break
    return "\n".join(lines)


def plan_char(run: Run, size: str, seed: int):
    """lift and verify --mode=all on two seed-generated inputs with a
    nontrivial character, plus verify on a seeded single-cell perturbation
    of each lift, which must FAIL."""
    nmax, mmax = SIZES[size]["char"]
    rng = random.Random(seed)
    inputs = []
    for name, weight, level, chi in CHAR_INPUTS:
        skjf = os.path.join(run.dir, name + ".skjf")
        write_text(skjf, orbit_constant_skjf(weight, level, chi, nmax, rng))
        inputs.append((name, skjf, perturbation_cell(nmax // mmax, rng)))

    def repetition(rep: Rep, rep_dir: str) -> None:
        for name, skjf, cell in inputs:
            key = f"{size}/char/seed{seed}/{name}"
            base = os.path.join(rep_dir, name)
            argv = ["lift", f"--in={skjf}", f"--mmax={mmax}", f"--out={base}.sksf"]
            run.process([Op(key + ".sksf", argv, base + ".sksf", head="SKSF 1")], rep)
            lifted = read_text(base + ".sksf")
            if lifted is not None:
                write_text(base + ".bad.sksf", perturb(lifted, cell))
            box = (nmax // mmax, mmax)
            argv = ["verify", f"--in={base}.sksf", "--mode=all", f"--out={base}.report"]
            run.process([Op(key + ".report", argv, base + ".report", head="VERDICT=PASS",
                            kind="verify", box=box)], rep)
            argv = ["verify", f"--in={base}.bad.sksf", "--mode=all", f"--out={base}.bad.report"]
            run.process([Op(key + ".perturbed.report", argv, base + ".bad.report", rc=1,
                            head="VERDICT=FAIL", kind="verify", box=box)], rep)

    return repetition


def plan_hecke(run: Run, size: str, seed: int):
    """hecke --sub=verify-identity for every level N and every m, n in
    range, in one process, in an order the seed shuffles."""
    levels, top = SIZES[size]["hecke"]
    triples = [(N, m, n) for N in range(1, levels + 1)
               for m in range(1, top + 1) for n in range(1, top + 1)]
    random.Random(seed).shuffle(triples)

    def repetition(rep: Rep, rep_dir: str) -> None:
        ops = []
        for N, m, n in triples:
            name = f"N{N}-m{m}-n{n}"
            out = os.path.join(rep_dir, name + ".txt")
            argv = ["hecke", "--sub=verify-identity", f"--level={N}", f"--m={m}", f"--n={n}",
                    f"--out={out}"]
            ops.append(Op(f"{size}/hecke/{name}", argv, out, head="OK: ", kind="identity"))
        run.process(ops, rep)

    return repetition


def plan(run: Run, workload: str, size: str, seed: int):
    if workload == "pipeline-cold":
        return plan_pipeline(run, size, seed, warm=False)
    if workload == "pipeline-warm":
        return plan_pipeline(run, size, seed, warm=True)
    if workload == "lift-verify-char":
        return plan_char(run, size, seed)
    return plan_hecke(run, size, seed)


def execute(run: Run, workload: str, size: str, seed: int, seconds: float, trace: bool) -> None:
    """Set-up probes, then repetitions until the next one would end after
    `seconds`; with tracing, repetitions alternate untraced and traced."""
    run.process([])  # compiles the run's private bytecode cache: not a sample
    run.setup.clear()
    repetition = plan(run, workload, size, seed)
    for _ in range(SETUP_PROBES):
        run.process([])
    start = clock()
    walls = []
    while True:
        rep = Rep(traced=trace and len(run.reps) % 2 == 1)
        rep_dir = os.path.join(run.dir, f"rep{len(run.reps)}")
        os.makedirs(rep_dir)
        began = clock()
        repetition(rep, rep_dir)
        walls.append(clock() - began)
        run.reps.append(rep)
        shutil.rmtree(rep_dir)
        enough = len(run.reps) >= (2 if trace else 1)
        if enough and clock() - start + statistics.median(walls) > seconds:
            return


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(run: Run) -> dict[str, float]:
    plain = [rep for rep in run.reps if not rep.traced]
    return {
        "total_s": statistics.median(rep.seconds for rep in plain),
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": statistics.median(rep.peak_rss_kb / 1024 for rep in plain),
        "checked_frac": run.checked / run.enumerated,
    }


def layer_metrics(rep: Rep) -> dict[str, float]:
    spans, counts = rep.spans, rep.counts

    def get(name, what):
        return spans.get(name, {}).get(what, 0)

    cohen_calls = get("numtheory.cohen_h", "calls")
    misses = counts["numtheory.h_cache.misses"]
    out = {
        "numtheory.cohen_h.calls": cohen_calls,
        "numtheory.cohen_h.self_s": get("numtheory.cohen_h", "self_s"),
        "numtheory.h_cache.hits": cohen_calls - misses,
        "numtheory.h_cache.misses": misses,
        "numtheory.h_cache.hit_ratio": (cohen_calls - misses) / cohen_calls if cohen_calls else 0.0,
        "numtheory.h_cache.file_bytes": counts["numtheory.h_cache.file_bytes"],
        "jacobi.mul_elliptic.pair_ops": counts["jacobi.mul_elliptic.pair_ops"],
        "serialize.bytes": counts["serialize.bytes"],
        "cli.main.self_s": get("cli.main", "self_s"),
    }
    for name in ("jacobi.mul_elliptic", "jacobi.index_shift", "characters.value",
                 "hecke.canonicalize_coset"):
        out[name + ".calls"] = get(name, "calls")
    for name in ("jacobi.mul_elliptic", "jacobi.builtin_form", "jacobi.index_shift",
                 "characters.value", "siegel.lift", "hecke.verify_theorem_identity",
                 "hecke.multiply", "hecke.canonicalize_coset"):
        out[name + ".self_s"] = get(name, "self_s")
    for family in tracing.RELATION_FAMILIES:
        out[f"siegel.{family}.self_s"] = get(f"siegel.{family}", "self_s")
        for what in ("checked", "skipped", "violations"):
            out[f"siegel.{family}.{what}"] = counts[f"siegel.{family}.{what}"]
    for what in ("skjf_write", "skjf_parse", "sksf_write", "sksf_parse"):
        out[f"serialize.{what}_s"] = get(f"serialize.{what}", "total_s")
    for verb in ("gen", "lift", "verify", "hecke"):
        out[f"cli.{verb}_s"] = get(f"cli.{verb}", "total_s")
    return out


def per_layer(run: Run) -> dict[str, float]:
    traced = [rep for rep in run.reps if rep.traced]
    plain = [rep for rep in run.reps if not rep.traced]
    values = [layer_metrics(rep) for rep in traced]
    out = {name: statistics.median(v[name] for v in values) for name in values[0]}
    out["trace.overhead_s"] = (statistics.median(rep.seconds for rep in traced)
                               - statistics.median(rep.seconds for rep in plain))
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def load_reference() -> dict[str, str]:
    with open(REFERENCE, encoding="ascii") as fh:
        return dict(line.split() for line in fh if line.strip())


def environment() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "sklift")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                src.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    src.update(fh.read())
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "src_sha256": src.hexdigest()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the sklift benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=tuple(SIZES),
                        help="input size; tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sklift", "__init__.py")):
        print(f"error: no sklift sources under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    run = Run(load_reference())
    try:
        execute(run, args.workload, args.size, args.seed, args.seconds, bool(args.trace))
        values = per_layer(run) if args.trace else end_to_end(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        run.close()
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: declared metrics not measured: {missing}", file=sys.stderr)
        return 2
    for problem in run.problems[:10]:
        print(f"failed: {problem}", file=sys.stderr)
    info = environment()
    info.update(workload=args.workload, seed=args.seed, size=args.size, trace=args.trace,
                repetitions=len(run.reps), setup_samples=len(run.setup))
    print(json.dumps(info))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
