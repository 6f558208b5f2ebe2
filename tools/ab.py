#!/usr/bin/env python3
"""A/B the repository benchmark: a base revision against the working tree.

    python3 tools/ab.py --base REV --workload W --seeds S[,S...] --pairs N [--seconds 20]
    python3 tools/ab.py --self-test

Exports the base revision (git archive) and the working tree (tracked and
untracked, non-ignored files) into a scratch directory, builds each side
through its own perfbench/run.py with its own CARGO_TARGET_DIR, and runs N
pairs of untraced runs per seed, alternating which side runs first. One
unpaired 1-second run per side builds it first. Every run must read
correct: true and failed == 0, and on each seed both sides must print the
same digest. --seed S is the one-seed spelling of --seeds.

For each seed and each end-to-end metric in BENCHMARK.json it prints each
side's median and quartiles, the median of the per-pair ratios (change /
base) with a seeded 95% bootstrap interval, and the change's wins (ties
count for neither), then a verdict:
  gain          the change wins at least 9 of 10 pairs, the medians differ
                by more than the base runs' quartile spread, and the
                interval of the median ratio excludes 1;
  worse         the change's median is worse than the base's by more than
                the metric's bound;
  unresolved    the runs spread wider than the bound, and not every change
                run reads better than every base run;
  within bound  otherwise.
Each seed's block ends with one line that sums up every metric. Exits
non-zero if a build or run fails, an output is wrong or the digests differ.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WARMUP_SECONDS = 1
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 0xAB  # fixed: the same pairs always give the same interval


class RunError(Exception):
    """A build or run failed, or its output is not trustworthy."""


# ------------------------------------------------------------- statistics


def quartiles(values):
    """(q1, median, q3) of a sample, as perfbench/spread.py computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def bootstrap_interval(ratios, resamples=BOOTSTRAP_RESAMPLES, seed=BOOTSTRAP_SEED):
    """Seeded 95% percentile-bootstrap interval of the median of `ratios`."""
    rng = random.Random(seed)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(resamples))
    return medians[int(0.025 * resamples)], medians[int(0.975 * resamples) - 1]


def verdict(wins, pairs, gap, base_iqr, change_iqr, limit, all_better, clear_of_one):
    """The verdict rule on one metric's summary (see the module docstring).

    gap > 0 when the change's median is better; limit is the bound times
    the base median; clear_of_one says the ratio interval excludes 1 on the
    better side."""
    if 10 * wins >= 9 * pairs and gap > base_iqr and clear_of_one:
        return "gain"
    if -gap > limit:
        return "worse"
    if max(base_iqr, change_iqr) > limit and not all_better:
        return "unresolved"
    return "within bound"


def compare(base, change, better, bound):
    """Pairwise comparison of one metric; base[i] and change[i] are pair i."""
    assert len(base) == len(change) and base, "one value per side per pair"
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    ratios = [c / b for b, c in zip(base, change) if b != 0]
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gap = sign * (cmed - bmed)  # > 0: the change's median is better
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    lo, hi = bootstrap_interval(ratios) if ratios else (float("nan"), float("nan"))
    clear_of_one = lo > 1.0 if better == "higher" else hi < 1.0
    return {
        "base": (bq1, bmed, bq3),
        "change": (cq1, cmed, cq3),
        "ratio": statistics.median(ratios) if ratios else float("nan"),
        "interval": (lo, hi),
        "wins": wins,
        "pairs": len(base),
        "verdict": verdict(wins, len(base), gap, bq3 - bq1, cq3 - cq1, bound * abs(bmed),
                           all_better, clear_of_one),
    }


def spread(q):
    """'q1/median/q3' of a quartiles() triple."""
    return "/".join(f"{v:.6g}" for v in q)


def interval_text(r):
    """'[lo, hi]' of a compare() result's ratio interval."""
    return "[{:.3f}, {:.3f}]".format(*r["interval"])


def summary_line(label, results):
    parts = [f"{name} {r['verdict']} x{r['ratio']:.3f} {interval_text(r)} "
             f"({r['wins']}/{r['pairs']})" for name, r in results.items()]
    return f"ab: {label}: " + ", ".join(parts)


def self_test():
    """The statistics on fixed inputs; exits non-zero on the first miss."""
    base = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    checks = []

    def expect(what, got, want):
        checks.append((what, got == want, got, want))

    expect("quartiles of 1..10", quartiles([float(v) for v in range(1, 11)]),
           (2.75, 5.5, 8.25))
    expect("quartiles of one run", quartiles([3.0]), (3.0, 3.0, 3.0))
    r = compare(base, [v * 1.5 for v in base], "higher", 0.25)
    expect("gain: verdict", r["verdict"], "gain")
    expect("gain: wins", r["wins"], 10)
    expect("gain: ratio", round(r["ratio"], 12), 1.5)
    # Nine wins of ten still make a gain; eight do not.
    nine = [v * 1.5 for v in base[:9]] + [base[9] * 0.9]
    expect("9/10 wins", compare(base, nine, "higher", 0.25)["verdict"], "gain")
    eight = [v * 1.5 for v in base[:8]] + [base[8] * 0.9, base[9] * 0.9]
    expect("8/10 wins", compare(base, eight, "higher", 0.25)["verdict"], "within bound")
    # Ties count for neither side.
    tied = compare(base, list(base), "lower", 0.25)
    expect("ties: wins", tied["wins"], 0)
    expect("ties: verdict", tied["verdict"], "within bound")
    # A lower-is-better metric: 1.5x is worse beyond a 0.25 bound, 1.1x is not.
    expect("worse", compare(base, [v * 1.5 for v in base], "lower", 0.25)["verdict"],
           "worse")
    expect("inside the bound",
           compare(base, [v * 1.1 for v in base], "lower", 0.25)["verdict"],
           "within bound")
    # A gap inside the base's own quartile spread is no gain, even 10/10.
    wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
    small = compare(wide, [v + 1.0 for v in wide], "higher", 0.25)
    expect("small gap: wins", small["wins"], 10)
    expect("small gap: verdict", small["verdict"], "unresolved")
    # Spread wider than the bound is unresolved unless every change run
    # beats every base run.
    expect("wide spread", compare(wide, list(reversed(wide)), "higher", 0.25)["verdict"],
           "unresolved")
    ladder = [100.0 + 10.0 * i for i in range(10)]
    apart = compare(ladder, [191.0] * 10, "higher", 0.25)
    expect("wide but apart: no gain", apart["wins"], 10)
    expect("wide but apart", apart["verdict"], "within bound")
    # The bootstrap interval: seeded, so repeatable; a constant sample's
    # interval is that constant; a sample spread around 1 keeps 1 inside.
    spread_ratios = [0.8, 1.3, 0.9, 1.2, 1.0, 1.1, 0.95, 1.05, 0.85, 1.15]
    expect("interval repeats", bootstrap_interval(spread_ratios),
           bootstrap_interval(spread_ratios))
    expect("interval of a constant", bootstrap_interval([1.5] * 10), (1.5, 1.5))
    lo, hi = bootstrap_interval(spread_ratios)
    expect("interval around 1", lo < 1.0 < hi, True)
    expect("interval holds the median", lo <= statistics.median(spread_ratios) <= hi, True)
    expect("gain: interval", r["interval"], (1.5, 1.5))
    # A gain needs the interval clear of 1 on the better side, even with
    # every pair won and the gap outside the base spread.
    expect("rule: clear interval", verdict(10, 10, 5.0, 1.0, 1.0, 25.0, True, True), "gain")
    expect("rule: interval holds 1",
           verdict(10, 10, 5.0, 1.0, 1.0, 25.0, True, False), "within bound")
    lower = compare(base, [v * 0.5 for v in base], "lower", 0.25)
    expect("lower is better: gain", lower["verdict"], "gain")
    expect("lower is better: interval", lower["interval"], (0.5, 0.5))
    expect("summary", summary_line("w seed 1", {"capacity_rps": r}),
           "ab: w seed 1: capacity_rps gain x1.500 [1.500, 1.500] (10/10)")
    failed = [c for c in checks if not c[1]]
    for what, _, got, want in failed:
        print(f"ab self-test: {what}: got {got!r}, want {want!r}")
    print(f"ab self-test: {len(checks) - len(failed)}/{len(checks)} checks pass")
    return 1 if failed else 0


# ------------------------------------------------------------- the runs


def git(*args, **kwargs):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, **kwargs)


def export_base(rev, dest):
    os.makedirs(dest)
    archive = git("archive", "--format=tar", rev, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def export_worktree(dest):
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                 capture_output=True).stdout.decode().split("\0")
    for rel in filter(None, listed):
        src = os.path.join(ROOT, rel)
        if not os.path.lexists(src):
            continue  # tracked, but deleted in the working tree
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, rel), follow_symlinks=False)


def run_once(tree, workload, seed, seconds):
    """One untraced run; returns ({metric: value}, digest)."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunError(f"{tree}: exit {done.returncode}\n{done.stderr[-2000:]}")
    record = json.loads(lines[-1])
    if record.get("correct") is not True or record.get("failed") != 0:
        raise RunError(f"{tree}: correct={record.get('correct')} "
                       f"failed={record.get('failed')}")
    digests = [line.split()[1] for line in lines if line.startswith("digest ")]
    if len(digests) != 1:
        raise RunError(f"{tree}: expected one digest line, got {digests}")
    return {name: m["value"] for name, m in record["metrics"].items()}, digests[0]


def run_pairs(trees, workload, seed, pairs, seconds, metric_names, digests):
    """`pairs` alternating pairs on one seed: {side: {metric: [values]}}."""
    values = {side: {name: [] for name in metric_names} for side in trees}
    for pair in range(pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            metrics, digest = run_once(trees[side], workload, seed, seconds)
            digests[side].add(digest)
            for name, vals in values[side].items():
                vals.append(metrics[name])
        print(f"ab: seed {seed}: pair {pair + 1}/{pairs} done ({order[0]} first)", flush=True)
    return values


def report(end_to_end, values, label):
    """One seed's block: a table of every end-to-end metric, then its summary."""
    results = {}
    print(f"\n{'metric':14s} {'base q1/med/q3':>36s} {'change q1/med/q3':>36s} "
          f"{'ratio':>7s} {'95% interval':>16s} {'wins':>6s}  verdict")
    for m in end_to_end:
        name = m["name"]
        r = compare(values["base"][name], values["change"][name], m["better"], m["bound"])
        results[name] = r
        print(f"{name:14s} {spread(r['base']):>36s} {spread(r['change']):>36s} "
              f"{r['ratio']:7.3f} {interval_text(r):>16s} {r['wins']:3d}/{r['pairs']:<2d}  "
              f"{r['verdict']}")
    print(summary_line(label, results))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="base revision (any git rev)")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", "--seed", dest="seeds",
                        help="comma-separated seeds, each with its own pairs")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workdir",
                        help="empty or missing scratch directory (default: a new temporary one)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.base, args.workload, args.seeds, args.pairs) or args.pairs < 1:
        parser.error("--base, --workload, --seeds and --pairs (>= 1) are required")
    try:
        seeds = [int(v) for v in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds {args.seeds}: expected comma-separated integers")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        end_to_end = json.load(f)["end_to_end"]
    metric_names = [m["name"] for m in end_to_end]
    rev = git("rev-parse", "--short", args.base, capture_output=True,
              text=True).stdout.strip()
    workdir = args.workdir or tempfile.mkdtemp(prefix="star-ab-")
    if os.path.exists(workdir) and os.listdir(workdir):
        parser.error(f"--workdir {workdir} is not empty")
    trees = {"base": os.path.join(workdir, "base"), "change": os.path.join(workdir, "change")}
    export_base(args.base, trees["base"])
    export_worktree(trees["change"])
    print(f"ab: base {rev} and the working tree exported to {workdir}", flush=True)

    for seed in seeds:
        digests = {side: set() for side in trees}
        try:
            if seed == seeds[0]:
                for side, tree in trees.items():  # builds each side; not counted
                    digests[side].add(run_once(tree, args.workload, seed, WARMUP_SECONDS)[1])
            values = run_pairs(trees, args.workload, seed, args.pairs, args.seconds,
                               metric_names, digests)
        except RunError as exc:
            print(f"ab: {exc}", file=sys.stderr)
            return 1
        if len(digests["base"]) != 1 or digests["base"] != digests["change"]:
            print(f"ab: seed {seed}: digests differ: base {sorted(digests['base'])}, "
                  f"change {sorted(digests['change'])}", file=sys.stderr)
            return 1
        report(end_to_end, values,
               f"{args.workload} seed {seed}, base {rev}, {args.pairs} pairs x "
               f"{args.seconds:g} s, digest {digests['base'].pop()} both sides")
    return 0


if __name__ == "__main__":
    sys.exit(main())
