"""End-to-end benchmark of the a2cf command line, run in-process.

    python3 bench/run.py --workload planted --seed 1 --seconds 50 --trace 0

One closed-loop client calls `a2cf.cli.cli_dispatch` for `prepare`, `train`,
`evaluate`, then a stream of `recommend` + `explain` requests, one after
another, on a synthetic corpus that this script generates from `--seed`.
The program sees only the generated TSV files. Every call's output is
checked (see checks.py). Set-up and every stage are repeated through the
stream. Every time is calibrated against the shared machine's changing
speed (see calibrate.py and bench/README.md).

--trace 0 prints the end-to-end metrics. --trace 1 runs the same pipeline
twice, untraced and then traced (spans.py), checks that tracing changed no
output, and prints the per-layer metrics. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See bench/README.md.
"""

import os

# One client and one BLAS thread on a 2-core shared machine. The cap must be
# set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
from calibrate import Clock  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TOP_K = 10
TOP_ATTRS = 3
EVAL_NEGATIVES = 1000


@dataclass(frozen=True)
class Workload:
    why: str
    spec: dict                  # SyntheticSpec fields
    train_flags: tuple          # hyperparameters and schedule for `train`
    repeats: dict               # stage -> calls per run, the first included


WORKLOADS = {
    # Criterion-4 corpus and hypers (tests/test_acceptance.py): training is
    # dominated by phase-2 negative sampling and the BPR-S forward/backward;
    # completion is cheap at embed_dim 8 and 30 attributes.
    "planted": Workload(
        why="phase-2 training (sample_negatives, bpr_s_forward_backward)",
        spec=dict(interactions_per_user=22, home_clusters=5),
        train_flags=("--embed-dim", "8", "--subst-weight", "0.8",
                     "--subst-temp", "8", "--pers-temp", "4",
                     "--learning-rate", "1e-3", "--dropout", "0.4",
                     "--negatives", "5", "--rounds-max", "2",
                     "--phase1-steps", "600", "--phase2-steps", "400",
                     "--convergence-tol", "0"),
        repeats={"setup": 9, "prepare": 25, "train": 3, "evaluate": 25}),
    # The large ROADMAP shape at the default embed_dim 64, shrunk in users
    # and items to fit the run time; items stay above 1000 so `evaluate`
    # ranks against a full 1000 real negatives. Every request re-runs
    # estimate_matrices, which dominates it; the short schedule keeps
    # phase-2 sampling a small share of training.
    "catalog": Workload(
        why="completion (estimate_matrices) and candidate scoring",
        spec=dict(users=300, items=1010, attributes=100, clusters=101,
                  functional_attrs=40, interactions_per_user=22,
                  home_clusters=5),
        train_flags=("--rounds-max", "1", "--phase1-steps", "100",
                     "--phase2-steps", "50"),
        repeats={"setup": 4, "prepare": 6, "train": 3, "evaluate": 6}),
}

END_TO_END = (
    ("setup_s", "s"), ("prepare_s", "s"), ("train_s", "s"),
    ("evaluate_s", "s"), ("recommend_p50_ms", "ms"),
    ("recommend_p90_ms", "ms"), ("explain_p50_ms", "ms"),
    ("explain_p90_ms", "ms"), ("peak_rss_mb", "MB"), ("ops_ok_frac", "frac"),
)
# Quality guards from metrics.txt. They are deterministic for a seed but vary
# between seeds by more than any bound (the test split has a few hundred
# cases), so the traced run reports them, after proving that tracing leaves
# them unchanged. Every run fails when HR@10 falls to chance.
QUALITY = (("hr_at_10", "HR@10"), ("ndcg_at_10", "NDCG@10"), ("atc", "ATC"))
STAGES = ("setup", "prepare", "train", "evaluate", "recommend", "explain")


def tail(values: list) -> tuple:
    """(q, value): the nearest-rank q-th percentile for the highest q <= 90
    that leaves at least ten samples above it (the median if none does)."""
    ordered = sorted(values)
    n = len(ordered)
    for q in range(90, 49, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return q, ordered[rank - 1]
    return 50, statistics.median(ordered)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "limits": "shared machine, no CPU pinning, file cache not dropped",
    }


@dataclass
class Outcome:
    """What one pass through the pipeline produced and how long it took."""

    attempted: int = 0
    problems: list = field(default_factory=list)   # one entry per failed call
    times: dict = field(default_factory=dict)      # command -> [calibrated s]
    wall: dict = field(default_factory=dict)       # command -> [wall s]
    quality: dict = field(default_factory=dict)    # metrics.txt values
    artifacts: dict = field(default_factory=dict)  # file name -> bytes
    script: list = field(default_factory=list)     # stream events, to replay


class Pipeline:
    """Drives the CLI for one pass, under an optional tracer."""

    def __init__(self, a2cf, out: Path, workload: Workload, seed: int,
                 tracer=None):
        self.cli = a2cf.cli
        self.synthetic = a2cf.synthetic
        self.raw = {}               # corpus file paths, set by setup()
        self.out = out
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.clock = Clock()
        self.began = 0.0            # perf_counter() at the start of run()
        self.data = str(out / "prep" / "prepared.npz")
        self.ckpt = str(out / "model" / "model.ckpt")
        self.result = Outcome()

    def call(self, argv: list, check) -> None:
        """Run one CLI call, time it, and check its output."""
        sink = io.StringIO()
        span = (self.tracer.span(f"cli.{argv[0]}") if self.tracer
                else contextlib.nullcontext())
        with self.clock.timing() as timing:
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink), span:
                    code = self.cli.cli_dispatch(argv)
            except Exception as exc:  # a crash is one failed operation
                code, sink = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
        self._record(argv[0], timing)
        problems = check() if code == 0 else [
            f"{argv[0]} exited {code}: {sink.getvalue().strip()[-200:]}"]
        if problems:
            self.result.problems.append(f"{argv[0]}: {'; '.join(problems)}")

    def _record(self, stage: str, timing) -> None:
        self.result.attempted += 1
        self.result.times.setdefault(stage, []).append(timing.seconds)
        self.result.wall.setdefault(stage, []).append(timing.wall)

    def _keep(self, name: str, path: Path) -> list:
        """Store an output's bytes; a repeat must reproduce them exactly."""
        data = path.read_bytes() if path.is_file() else b""
        if self.result.artifacts.setdefault(name, data) != data:
            return [f"{name} differs between repeated calls"]
        return []

    def setup(self) -> None:
        """Write the workload's corpus files; a repeat must reproduce them
        byte for byte. Timed like a call, but outside any tracer span."""
        spec = self.synthetic.SyntheticSpec(**self.workload.spec)
        with self.clock.timing() as timing:
            try:
                paths = self.synthetic.generate_synthetic(
                    spec, self.seed, str(self.out / "raw"))
                problems = []
            except Exception as exc:
                paths, problems = {}, [f"{type(exc).__name__}: {exc}"]
        self._record("setup", timing)
        self.raw = self.raw or paths
        for name, path in sorted(paths.items()):
            problems += self._keep(f"corpus {name}", Path(path))
        if problems:
            self.result.problems.append(f"setup: {'; '.join(problems)}")

    def prepare(self) -> None:
        prep = self.out / "prep"
        self.call(["prepare", "--reviews", self.raw.get("reviews", ""),
                   "--lexicon", self.raw.get("lexicon", ""),
                   "--substitutes", self.raw.get("substitutes", ""),
                   "--out-dir", str(prep), "--seed", str(self.seed)],
                  lambda: checks.check_prepare(str(prep))
                  + self._keep("prepared.npz", prep / "prepared.npz"))

    def train(self) -> None:
        model = self.out / "model"
        self.call(["train", "--data", self.data, "--out-dir", str(model),
                   "--seed", str(self.seed), *self.workload.train_flags],
                  lambda: checks.check_train(str(model))
                  + self._keep("model.ckpt", model / "model.ckpt"))

    def evaluate(self) -> None:
        model = self.out / "model"
        items = checks.read_manifest(str(self.out / "prep")).get("items", 2)
        chance_hr = TOP_K / (min(EVAL_NEGATIVES, items - 1) + 1)

        def check():
            values, problems = checks.read_metrics(str(model), chance_hr)
            self.result.quality = values
            return problems + self._keep("metrics.txt", model / "metrics.txt")
        self.call(["evaluate", "--data", self.data, "--checkpoint", self.ckpt,
                   "--out-dir", str(model), "--seed", str(self.seed),
                   "--eval-negatives", str(EVAL_NEGATIVES)], check)

    def request(self, user: str, query: str) -> None:
        """`recommend`, then `explain` for the same pair."""
        req = str(self.out / "req")
        argv = ["--data", self.data, "--checkpoint", self.ckpt,
                "--out-dir", req, "--user", user, "--query", query,
                "--top-k", str(TOP_K)]
        items = []

        def check_recommend():
            found, problems = checks.read_recs(req, user, query, TOP_K)
            items[:] = found
            return problems
        self.call(["recommend", *argv], check_recommend)
        self.call(["explain", *argv, "--top-attrs", str(TOP_ATTRS)],
                  lambda: checks.check_explain(req, user, query, items,
                                               TOP_ATTRS))

    def run(self, seconds: float | None = None, script: list | None = None):
        """setup, prepare, train, evaluate, then a stream of requests that
        runs until `seconds` have passed since the run began. The repeats
        of each stage are spread evenly through the stream, so that a median
        covers the whole run rather than one moment of it. `script` replays the events of an earlier
        run instead."""
        self.began = time.perf_counter()
        self.setup()
        self.prepare()
        self.train()
        self.evaluate()
        for event in script if script is not None else self._schedule(seconds):
            self.result.script.append(event)
            if event[0] == "request":
                self.request(*event[1:])
            else:
                getattr(self, event[0])()
        return self.result

    def _schedule(self, seconds: float):
        """Request pairs drawn uniformly from the test split until `seconds`
        have passed since the run began and every repeat is done. Repeats
        are due at evenly spaced times over what is left of `seconds`, with
        at least one request pair between two of them."""
        try:
            with np.load(self.data, allow_pickle=False) as blob:
                test = blob["test"]
                users = [str(t) for t in blob["user_tokens"]]
                items = [str(t) for t in blob["item_tokens"]]
        except (OSError, KeyError, ValueError):
            test = []               # prepare failed and was counted already
        rng = np.random.default_rng([self.seed, 1])
        start = time.perf_counter()
        end = max(start, self.began + seconds)
        due = sorted((start + (end - start) * (i + 0.5) / (n - 1), stage)
                     for stage, n in self.workload.repeats.items()
                     for i in range(n - 1))
        paired = True               # a request pair ran since the last repeat
        while due or (len(test) and time.perf_counter() < end):
            if due and (not len(test) or paired
                        and time.perf_counter() >= due[0][0]):
                paired = False
                yield (due.pop(0)[1],)
            else:
                paired = True
                u, q, _ = test[rng.integers(len(test))]
                yield ("request", users[u], items[q])


def end_to_end(outcome: Outcome) -> tuple:
    """Metric values plus the lines that state each sample count."""
    t = {stage: outcome.times.get(stage) or [math.nan] for stage in STAGES}
    rec_q, rec_tail = tail(t["recommend"])
    exp_q, exp_tail = tail(t["explain"])
    ok = outcome.attempted - len(outcome.problems)
    values = {
        "setup_s": statistics.median(t["setup"]),
        "prepare_s": statistics.median(t["prepare"]),
        "train_s": statistics.median(t["train"]),
        "evaluate_s": statistics.median(t["evaluate"]),
        "recommend_p50_ms": 1e3 * statistics.median(t["recommend"]),
        "recommend_p90_ms": 1e3 * rec_tail,
        "explain_p50_ms": 1e3 * statistics.median(t["explain"]),
        "explain_p90_ms": 1e3 * exp_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok_frac": ok / max(1, outcome.attempted),
    }
    wall = {stage: outcome.wall.get(stage) or [math.nan] for stage in STAGES}
    notes = [
        "samples (medians): " + ", ".join(f"{s} x{len(t[s])}" for s in STAGES)
        + f"; recommend_p90_ms is p{rec_q}, explain_p90_ms is p{exp_q}",
        "uncalibrated wall medians (s): " + ", ".join(
            f"{s} {statistics.median(wall[s]):.4g}" for s in STAGES),
        "quality: " + " ".join(f"{key}={outcome.quality.get(key)}"
                               for _, key in QUALITY),
    ]
    return values, notes


def traced(a2cf, workload: Workload, seed: int, work: Path, seconds: float,
           env: dict) -> tuple:
    """Untraced pass of half the run's length, then a traced replay of the
    same requests, each stage run once. Returns (metrics, attempted,
    problems)."""
    workload = replace(
        workload, repeats={stage: 1 for stage in workload.repeats})
    plain = Pipeline(a2cf, work / "plain", workload, seed).run(seconds / 2)
    tracer = Tracer(a2cf)
    with tracer.install():
        spanned = Pipeline(a2cf, work / "traced", workload, seed,
                           tracer).run(script=plain.script)
    metrics, problems = tracer.summary()
    for name, key in QUALITY:
        metrics[name] = plain.quality.get(key, 0.0)
    problems += plain.problems + spanned.problems
    for name in sorted(set(plain.artifacts) | set(spanned.artifacts)):
        if plain.artifacts.get(name) != spanned.artifacts.get(name):
            problems.append(f"tracing changed {name}")
    wall = [sum(sum(calls) for calls in o.wall.values())
            for o in (plain, spanned)]
    metrics["trace.overhead_s"] = wall[1] - wall[0]
    metrics["trace.overhead_frac"] = wall[1] / wall[0] - 1.0
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tracer.dump(str(out / f"spans-{work.name.rsplit('-', 1)[0]}.jsonl"), env)
    return metrics, plain.attempted + spanned.attempted, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the run measures, from its first "
                             "set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "a2cf" / "cli.py").is_file():
        print(f"error: no a2cf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import a2cf
    import a2cf.cli
    import a2cf.synthetic
    if Path(a2cf.__file__).resolve().parent != SRC / "a2cf":
        print(f"error: imported a2cf from {a2cf.__file__}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = environment()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            metrics, attempted, problems = traced(
                a2cf, workload, args.seed, work, args.seconds, env)
        else:
            outcome = Pipeline(a2cf, work / "run", workload,
                               args.seed).run(args.seconds)
            metrics, notes = end_to_end(outcome)
            attempted, problems = outcome.attempted, outcome.problems
            print("\n".join(notes))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload: {args.workload} ({workload.why}), seed {args.seed}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit(name)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def unit(name: str) -> str:
    if name in dict(END_TO_END):
        return dict(END_TO_END)[name]
    if name.endswith("_s"):
        return "s"
    if "_share_" in name or name.endswith(("_frac", "_ratio")) or name in dict(QUALITY):
        return "frac"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
