"""Run the benchmark at two source checkouts in alternating pairs and
compare their end-to-end metrics.

    python3 tools/bench_pairs.py --base ../parent-checkout --workload eval_c8_omega
    python3 tools/bench_pairs.py --base ../a --head ../b --workload train_c8 --pairs 5

Pair k runs `perfbench/run.py --workload W --seed S+k --seconds N --trace 0`
once in each checkout, each in a new process started in that checkout, with
N the `run_seconds` of the head's `BENCHMARK.json`.
An even seed runs the base first and an odd seed the head first, so a
drift of the host's speed within a pair falls on both sides alike. Each run's
verdict and metrics go to standard error as it finishes; at the end a TSV
on standard output gives, for every end-to-end metric of the head's
`BENCHMARK.json`, each side's median and quartiles, the number of pairs in
which the head was strictly better, the ratio of the head's median to the
base's, and `gain`: `yes` when the head wins at least nine tenths of the
pairs (ties count for neither side) and its median is better than the
base's by more than the base's interquartile range, the rule a claimed gain
must meet, else `no`. The exit code is 1 if any run failed to finish or
reported `correct: false`, else 0.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The JSON result of one benchmark run, or None if it printed none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    for line in proc.stdout.splitlines():
        if line.startswith("check failed:"):
            print(f"  {checkout.name}: {line}", file=sys.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {checkout.name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"  {checkout.name}: last line is not JSON: {lines[-1]}", file=sys.stderr)
        return None


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True,
                        help="checkout to compare against")
    parser.add_argument("--head", type=Path, default=HERE,
                        help="checkout under test (default: this one)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    spec = json.loads((sides["head"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    results: dict[str, list[dict]] = {"base": [], "head": []}
    all_correct = True
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = ("base", "head") if seed % 2 == 0 else ("head", "base")
        for side in order:
            out = run_once(sides[side], args.workload, seed, seconds)
            correct = out is not None and out.get("correct") is True
            all_correct &= correct
            values = {} if out is None else \
                {name: m["value"] for name, m in out["metrics"].items()}
            results[side].append(values)
            shown = " ".join(f"{name}={v:.6g}" for name, v in values.items())
            print(f"pair {k} seed {seed} {side}: correct={correct} "
                  f"failed={None if out is None else out.get('failed')} {shown}",
                  file=sys.stderr)

    print("metric\tunit\tbetter\tbase_median\tbase_q1\tbase_q3\t"
          "head_median\thead_q1\thead_q3\thead_wins\tpairs\thead_over_base\tgain")
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        pairs = [(b[name], h[name]) for b, h in zip(results["base"], results["head"])
                 if name in b and name in h]
        if not pairs:
            continue
        wins = sum(sign * (h - b) > 0 for b, h in pairs)
        base, base_q1, base_q3 = spread([b for b, _ in pairs])
        head = spread([h for _, h in pairs])
        ratio = f"{head[0] / base:.4f}" if base else "nan"
        gain = 10 * wins >= 9 * len(pairs) and sign * (head[0] - base) > base_q3 - base_q1
        print("\t".join([name, metric["unit"], metric["better"],
                         *(f"{c:.6g}" for c in (base, base_q1, base_q3, *head)),
                         str(wins), str(len(pairs)), ratio, "yes" if gain else "no"]))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
