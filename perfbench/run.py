"""Benchmark of the ragner CLI chain on seeded synthetic workloads.

    python3 perfbench/run.py --workload crossner-domains --seed 1 --seconds 35 --trace 0

With --trace 0 every CLI command runs as its own process, as a user runs
it, and the end-to-end metrics are reported. With --trace 1 the same chain
runs inside this process three times, the second time with spans around
the program's public functions, and the per-layer metrics are reported.
Every run checks the program's outputs (see bench_checks) and prints, as
its last stdout line, one JSON object: correct, attempted, failed, metrics.

The benchmark and every command it starts are pinned to one CPU. Times of
the end-to-end metrics are in reference seconds: bench_spawn.py stops each
command every 0.2 s to time a fixed probe on that CPU, and scales each
stretch of the command's wall by a power of how much slower than its
reference time the probe ran around it, which cancels most of the
machine's own drift in speed (see README.md).
"""

from __future__ import annotations

import os

# pinned before numpy loads, here and in every command this benchmark starts
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import bench_checks  # noqa: E402
import bench_inputs  # noqa: E402
from bench_trace import PER_LAYER, Tracer, layer_metrics  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
WORKLOADS = ("crossner-domains", "large-store")
# wall of one round (the chain over every corpus, then the ablations) on a 2-core VM;
# --seconds buys round(seconds / this) whole rounds, at least one
NOMINAL_ROUND_S = {"crossner-domains": 22.0, "large-store": 20.0}
COMMAND_TIMEOUT_S = 150
SETUP = ("ingest", "index")
CHAIN = ("augment", "predict", "evaluate")


@dataclass
class Command:
    wall: float
    code: int
    maxrss_kb: int
    stderr: str
    ref_wall: float  # wall in reference seconds; the plain wall in process


@dataclass
class Run:
    """What one benchmark run has done and found."""

    workload: str
    seed: int
    corpora: list
    inputs: Path
    run_dir: Path
    in_process: bool
    tracer: Tracer | None = None
    commands: list[Command] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    hashes: dict[str, str] = field(default_factory=dict)
    spawner: Spawner | None = None

    @property
    def rel_inputs(self) -> str:
        return os.path.relpath(self.inputs, self.run_dir)

    def out(self, corpus) -> Path:
        return self.run_dir / "out" / corpus.name

    def cli(self, corpus, name: str, *args: str) -> Command:
        argv = ["-c", f"{corpus.name}.json", name, *args]
        if not self.in_process:
            cmd = self.spawner.run(argv, self.run_dir)
        elif self.tracer is None:
            cmd = _run_in_process(argv, self.run_dir)
        else:
            with self.tracer.span(f"cli.{name}"):
                cmd = _run_in_process(argv, self.run_dir)
        self.commands.append(cmd)
        self.attempted += 1
        if cmd.code != 0:
            self.failed += 1
            self.errors.append(f"{corpus.name}: `ragner {name}` exited {cmd.code}: "
                               f"{cmd.stderr.strip()[-300:]}")
        return cmd

    def chain(self) -> dict[str, float]:
        """ingest ... evaluate of every corpus into fresh outputs; reference
        seconds per command."""
        shutil.rmtree(self.run_dir / "out", ignore_errors=True)
        walls = dict.fromkeys(SETUP + CHAIN, 0.0)
        for corpus in self.corpora:
            for name in SETUP + CHAIN:
                walls[name] += self.cli(corpus, name).ref_wall
        return walls

    def ablate(self) -> float:
        grids = [c for c in self.corpora if c.ablate_axes]
        return sum(self.cli(c, "ablate", "--grid", f"{self.rel_inputs}/{c.name}/grid.json")
                   .ref_wall for c in grids)

    def _check(self, corpus, check) -> tuple:
        try:
            return check()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.errors.append(f"{corpus.name}: cannot check outputs: {type(exc).__name__}: {exc}")
            return None

    def check_chain(self) -> tuple[int, int]:
        """Check a finished chain; returns (test sentences, finetune records)."""
        sentences = records = 0
        for corpus in self.corpora:
            out = self.out(corpus)
            n_test = len(corpus.splits["test"])
            self.attempted += n_test
            sentences += n_test
            found = self._check(corpus, lambda: bench_checks.check_predict_chain(corpus, out))
            if found:
                self.errors += found[0]
                self.failed += found[1]
            found = self._check(corpus, lambda: bench_checks.check_augment(
                corpus, out, bench_checks.store_ids(out)))
            if found:
                self.errors += found[0]
                records += found[1]
            for name in bench_checks.HASHED_ARTIFACTS:
                digest = self._check(corpus, lambda: bench_checks.sha256(out / name))
                key = f"{corpus.name}/{name}"
                if digest and self.hashes.setdefault(key, digest) != digest:
                    self.errors.append(f"{key} differs between two chains of one run")
        return sentences, records

    def check_ablation(self) -> int:
        """Check the ablation tables; returns their number of cells."""
        cells = 0
        for corpus in (c for c in self.corpora if c.ablate_axes):
            found = self._check(corpus, lambda: bench_checks.check_ablation(corpus, self.out(corpus)))
            if found:
                self.errors += found[0]
                cells += found[1]
                self.attempted += found[1]
                self.failed += found[2]
        return cells

    def check_retrieval(self) -> None:
        for corpus in (c for c in self.corpora if c.retrieval_ids):
            path = self.run_dir / f"retrieval-{corpus.name}.jsonl"
            queries = f"{self.rel_inputs}/{corpus.name}/queries.jsonl"
            if self.cli(corpus, "retrieve", "--input", queries, "--output", path.name).code == 0:
                self.errors += self._check(corpus, lambda: bench_checks.check_retrieval(
                    corpus, self.out(corpus), path)) or []

    def check_hashes_across_runs(self) -> None:
        """Hashed artifacts must match every earlier run of this seed, source
        and configs."""
        source = hashlib.sha256()
        for path in sorted((SRC / "ragner").glob("*.py")) + sorted(self.run_dir.glob("*.json")):
            source.update(path.name.encode() + path.read_bytes())
        record = bench_inputs.CACHE_DIR / "hashes" / (
            f"{self.workload}-s{self.seed}-{source.hexdigest()[:16]}.json")
        if record.exists():
            earlier = json.loads(record.read_text(encoding="utf-8"))
            for key, digest in self.hashes.items():
                if earlier.get(key, digest) != digest:
                    self.errors.append(f"{key} differs from an earlier run of seed {self.seed}")
        elif self.hashes and not self.errors:
            record.parent.mkdir(parents=True, exist_ok=True)
            record.write_text(json.dumps(self.hashes, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")


def _child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


class Spawner:
    """bench_spawn.py, started small, runs every command of an untraced run."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-I", str(BENCH_DIR / "bench_spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: Path) -> Command:
        """One `ragner` command in its own process: wall, reference seconds and peak RSS."""
        err_path = cwd / "stderr.txt"
        request = {"argv": [sys.executable, "-m", "ragner.cli", *argv], "cwd": str(cwd),
                   "env": _child_env(), "stderr": str(err_path), "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Command(reply["wall"], reply["code"], reply["maxrss_kb"],
                       err_path.read_text(encoding="utf-8", errors="replace"), reply["ref_wall"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=COMMAND_TIMEOUT_S)


def _run_in_process(argv: list[str], cwd: Path) -> Command:
    from ragner.cli import main

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.chdir(cwd), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=argv, prog_name="ragner", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash of the program is a failed command
            code = 1
            err.write(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    return Command(wall, code, 0, err.getvalue(), wall)


def _prepare(workload: str, seed: int, in_process: bool) -> Run:
    inputs, corpora = bench_inputs.ensure_inputs(workload, seed)
    run_dir = WORK_DIR / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    run = Run(workload, seed, corpora, inputs, run_dir, in_process)
    if not in_process:
        run.spawner = Spawner()
    for corpus in corpora:
        cfg = bench_inputs.corpus_config(corpus, f"out/{corpus.name}", run.rel_inputs)
        (run_dir / f"{corpus.name}.json").write_text(json.dumps(cfg, indent=1) + "\n",
                                                     encoding="utf-8")
    return run


def _warm_up(run: Run) -> None:
    """Discarded: compiles bytecode and warms imports and the page cache.

    In this process the first corpus is also indexed once, so the passes
    that follow all start from a grown heap.
    """
    for name in SETUP if run.in_process else SETUP[:1]:
        run.cli(run.corpora[0], name)


def measure(run: Run, rounds: int) -> dict[str, tuple[float, str]]:
    """End-to-end metrics over whole rounds of the chain plus the ablations.
    Per-round values are medians over the rounds; the rates pool every
    round's work and wall."""
    setups, chains, ablates = [], [], []
    totals = dict.fromkeys(("sentences", "records", "predict", "augment"), 0.0)
    for _ in range(rounds):
        walls = run.chain()
        sentences, records = run.check_chain()
        setups.append(sum(walls[name] for name in SETUP))
        chains.append(sum(walls.values()))
        totals["sentences"] += sentences
        totals["records"] += records
        totals["predict"] += walls["predict"]
        totals["augment"] += walls["augment"]
        ablate_wall = run.ablate()
        ablates.append(ablate_wall / max(run.check_ablation(), 1))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "chain_s": (statistics.median(chains), "s"),
        "predict_sent_per_s": (totals["sentences"] / totals["predict"], "1/s"),
        "augment_rec_per_s": (totals["records"] / totals["augment"], "1/s"),
        "ablate_cell_s": (statistics.median(ablates), "s"),
        "peak_rss_mb": (max(c.maxrss_kb for c in run.commands) / 1024, "MB"),
    }


def trace(run: Run) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from one traced in-process pass (chain, ablation and
    an IVF probe), plus its overhead against the mean of an untraced pass
    before it and one after it, which cancels warm-up and steady drift."""
    tracer = Tracer()
    walls = []
    for traced in (False, True, False):
        if traced:
            tracer.install()
            run.tracer = tracer
        start = time.perf_counter()
        run.chain()
        run.ablate()
        walls.append(time.perf_counter() - start)
        run.tracer = None
        if traced:
            recall = _ivf_probe(run, tracer)
            tracer.uninstall()
        run.check_chain()
        run.check_ablation()
    metrics = layer_metrics(tracer.spans)
    if recall is not None:
        metrics["vector_index.ivf_recall_at_k"] = (recall, "ratio")
    untraced = (walls[0] + walls[2]) / 2
    metrics["trace.overhead_s"] = (walls[1] - untraced, "s")
    metrics["trace.overhead_ratio"] = ((walls[1] - untraced) / untraced, "ratio")
    return metrics, tracer.missing


def _ivf_probe(run: Run, tracer: Tracer, k: int = 5, n_queries: int = 40) -> float | None:
    """IVF build and search on the chain's own word index, against flat.

    Runs on every workload, so the IVF layer is measured even where the
    chain builds none. Returns the mean recall@k of IVF at its default
    nprobe against the flat index, or None if that API has changed.
    """
    from ragner import vector_index as vi

    corpus = next(c for c in run.corpora if c.retrieval_ids)
    try:
        with tracer.span("probe.ivf"):
            flat = vi.load_index(run.out(corpus) / "store" / "word_index.bin")
            ivf = vi.ivf_from_matrix(flat.matrix, flat.sentence_ids, flat.words,
                                     vi.default_nlist(len(flat)), 20, 7)
            recalls = []
            for sentence in corpus.splits["test"][:n_queries]:
                for vec in sentence.vectors:
                    q = vec / np.linalg.norm(vec)
                    want = {h.record_id for h in flat.search(q, k)}
                    got = {h.record_id for h in ivf.search(q, k)}
                    recalls.append(len(want & got) / len(want))
    except (AttributeError, TypeError, ImportError, OSError) as exc:
        print(f"ivf probe skipped: {type(exc).__name__}: {exc}")
        return None
    return float(np.mean(recalls))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ragner" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'ragner'} is missing", file=sys.stderr)
        return 2

    # one CPU for this process and its children: the speed probe then
    # measures the CPU the commands run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = _prepare(args.workload, args.seed, in_process=bool(args.trace))
    missing: list[str] = []
    try:
        if args.trace:
            sys.path.insert(0, str(SRC))
            _warm_up(run)
            metrics, missing = trace(run)
        else:
            _warm_up(run)
            metrics = measure(run, max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload])))
        run.check_retrieval()
        run.check_hashes_across_runs()
    finally:
        if run.spawner is not None:
            run.spawner.close()
        shutil.rmtree(run.run_dir, ignore_errors=True)

    print(f"workload {run.workload}, seed {run.seed}, nproc {os.cpu_count()}, threads pinned: "
          + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items()) + " generator.parallelism=1")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    for name in missing:
        print(f"  not traced: {name} (no such public function)")
    for name in PER_LAYER if args.trace else ():
        if name not in metrics:
            print(f"  missing: {name}")
    for error in run.errors:
        print(f"CHECK FAILED: {error}")
    if not args.trace:
        speeds = [c.ref_wall / c.wall for c in run.commands]
        print(f"  machine speed during commands: median {statistics.median(speeds):.3f}, "
              f"range {min(speeds):.3f}-{max(speeds):.3f} of reference; wall of all "
              f"commands {sum(c.wall for c in run.commands):.3f} s")
    print(f"operations: {run.attempted} attempted, {run.failed} failed")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
