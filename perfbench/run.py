"""amortcheck benchmark: time to verdict on three workloads.

    python3 perfbench/run.py --workload all|merge|trace --seed N --seconds S --trace 0|1

Every pass is one fresh Python process (`worker.py`) that imports
amortcheck from `src/`, sets the workload up and runs it once, so each
pass pays the set-up a user pays and reports its own peak memory. Passes
run one after another, with `AMORTIZE_THREADS` unset, until S seconds have
been measured. During each untraced pass `gauge.SpeedGauge` times a
fixed snippet every 0.1 s; a pass's time is reported as its own wall time
(snippets excluded) over its mean snippet time, times
gauge.NOMINAL_S, which cancels most of the shared host's speed drift.
The median over passes is the run's figure. Raw wall times are printed
too.

With --trace 0 the passes run untraced and the end-to-end metrics are
reported. With --trace 1 untraced and traced passes alternate: the traced
ones give the per-layer metrics, and the ratio of the two medians is the
tracing overhead. Each run also checks every output against its known
answer, runs the negative controls, and counts how many of the soundness
probes the checker wrongly passes.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The full record of the run,
and the spans of its first traced pass, are written to `perfbench/out/`.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gauge import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("all", "merge", "trace")

DEADLINE_S = 170  # the whole run, children included
SETUP_SAMPLES = 7  # set-up-only processes per run, besides one per pass


class HarnessError(Exception):
    pass


def environment():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "AMORTIZE_THREADS": "unset",
        "PYTHONHASHSEED": "0",
        "process": "one fresh process per pass, passes sequential",
    }


class Runner:
    """Runs one script of this directory in a fresh process, with a deadline."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "AMORTIZE_THREADS"}
        self.env["PYTHONHASHSEED"] = "0"

    def __call__(self, script, *args):
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError("out of time before the run finished")
        cmd = [sys.executable, str(HERE / script), *args]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise HarnessError(f"{' '.join(cmd[1:])} did not finish in time")
        if proc.returncode != 0:
            raise HarnessError(f"{' '.join(cmd[1:])} failed:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.splitlines()[-1])


def tail(samples):
    """The highest percentile with at least ten samples above it, if any."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": round(100 * (n - 10) / n, 1), "value": sorted(samples)[n - 11]}


def layer_metrics(traced, case_names):
    """Per-layer metrics of each traced pass (times unscaled)."""
    per_pass = []
    for p in traced:
        L = p["layers"]
        calls, self_s, total = {}, {}, {}
        for layer, case, n, tot, own in L["stats"]:
            calls[layer] = calls.get(layer, 0) + n
            self_s[layer] = self_s.get(layer, 0.0) + own
            total[(layer, case)] = tot
            calls[(layer, case)] = n
        phi_calls = calls.get("coalgebra.phi", 0)
        produced = sum(L["produced"][c] for c in L["explored"])
        admitted = sum(s - L["seeds"][c] for c, (s, _sq) in L["explored"].items())
        m = {}
        for layer in ("encoding.serialize", "coalgebra.phi", "structures.impl",
                      "structures.spec", "structures.filter"):
            m[f"{layer}.calls"] = calls.get(layer, 0)
            m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        m["coalgebra.phi.distinct_ratio"] = (
            sum(L["phi_distinct"].values()) / phi_calls if phi_calls else 0.0
        )
        for layer in ("checker.explore", "checker.trace", "cli.main"):
            m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        m["checker.explore.admit_ratio"] = admitted / produced if produced else 0.0
        m["registry.get_case.s"] = total.get(("registry.get_case", ""), 0.0)
        for name in case_names:
            m[f"checker.explore.case.{name}.s"] = total.get(("checker.explore", name), 0.0)
        for layer in ("structures.impl", "structures.spec", "coalgebra.phi",
                      "encoding.serialize"):
            m[f"{layer}.deque.calls"] = calls.get((layer, "deque"), 0)
        per_pass.append(m)
    return per_pass


def measure(workload, seed, seconds, trace):
    run = Runner(time.monotonic() + DEADLINE_S)
    worker = ["worker.py", "--workload", workload, "--seed", str(seed)]
    run(*worker, "--setup-only")  # warm-up: compiles bytecode; not counted
    controls = run(*worker, "--controls")
    setups = [run(*worker, "--setup-only") for _ in range(SETUP_SAMPLES)]

    OUT.mkdir(exist_ok=True)
    plain, traced = [], []
    window = time.monotonic()
    while time.monotonic() - window < seconds or not plain or (trace and not traced):
        if trace and len(traced) < len(plain):
            flags = ["--traced"]
            if not traced:
                flags += ["--spans", str(OUT / f"spans-{workload}.tsv.gz")]
            traced.append(run(*worker, *flags))
        else:
            plain.append(run(*worker))
    measured_s = time.monotonic() - window

    passes = plain + traced
    setups += passes
    setup_raw = [p["setup_s"] for p in setups]
    setup_gauged = [NOMINAL_S * p["setup_s"] / statistics.mean(p["setup_gauge_s"]) for p in setups]
    wrong = controls["wrong"] + [w for p in passes for w in p["wrong"]]
    attempted = controls["attempted"] + sum(p["attempted"] for p in passes)
    verdicts = [p["verdict_s"] for p in plain]
    refs = [g for p in plain for g in p["gauge_s"]]
    scale = NOMINAL_S / statistics.median(refs)
    # Each pass in units of its own gauge, so drift within a run cancels too.
    gauged = [NOMINAL_S * p["verdict_s"] / statistics.mean(p["gauge_s"]) for p in plain]

    if trace:
        case_names = [l.split(",")[0] for l in
                      (HERE / "expected" / "all.csv").read_text().splitlines()[1:]]
        per_pass = layer_metrics(traced, case_names)
        counts = [{k: v for k, v in m.items() if k.endswith(".calls")} for m in per_pass]
        if any(c != counts[0] for c in counts):
            wrong.append("layer call counts differ between traced passes of one seed")
        metrics = {}
        for k, v in per_pass[0].items():
            if k.endswith("_s") or k.endswith(".s"):
                v = scale * statistics.median(m[k] for m in per_pass)
            elif not k.endswith(".calls"):
                v = statistics.median(m[k] for m in per_pass)
            metrics[k] = v
        metrics["tracing_overhead"] = (
            statistics.median(p["verdict_s"] for p in traced) / statistics.median(verdicts)
        )
    else:
        metrics = {
            "verdict_s": statistics.median(gauged),
            "squares_per_s": statistics.median(p["work"] / g for p, g in zip(plain, gauged)),
            "setup_s": statistics.median(setup_gauged),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
        }
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "measured_s": measured_s,
        "scale": scale,
        "verdict_s": {"median": statistics.median(gauged), "tail": tail(gauged),
                      "passes": len(gauged)},
        "raw": {"verdict_s": statistics.median(verdicts), "tail": tail(verdicts),
                "setup_s": statistics.median(setup_raw), "gauge_s": statistics.median(refs)},
        "samples": {"verdict_s": verdicts, "traced_verdict_s": [p["verdict_s"] for p in traced],
                    "setup_s": setup_raw, "gauge_s": [p["gauge_s"] for p in plain]},
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(wrong),
        "wrong": wrong,
        "wrong_verdict_ratio": len(wrong) / attempted,
        "unsound_passes": len(controls["unsound"]),
        "probes": controls["probes"],
        "unsound": controls["unsound"],
    }


def report(record, metrics):
    raw, v = record["raw"], record["verdict_s"]
    print(f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
          f"measured={record['measured_s']:.1f}s")
    print("environment: " + " ".join(f"{k}={v!r}" for k, v in record["environment"].items()))
    for name, d in (("gauged", v), ("raw wall", raw)):
        tl = d["tail"]
        print(f"{name} verdict_s: median {d['verdict_s' if d is raw else 'median']:.4f} s "
              f"over {v['passes']} untraced passes; "
              + (f"p{tl['percentile']} {tl['value']:.4f} s" if tl else
                 "too few passes for a percentile with 10 samples beyond it"))
    print("raw wall verdict_s samples: "
          + " ".join(f"{x:.4f}" for x in record["samples"]["verdict_s"]))
    print(f"raw setup_s median {raw['setup_s']:.4f} s; gauge snippet median "
          f"{raw['gauge_s'] * 1000:.3f} ms (nominal {NOMINAL_S * 1000:.3f} ms)")
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:.6g} {m['unit']}")
    print(f"wrong_verdict_ratio {record['failed']}/{record['attempted']}"
          f" = {record['wrong_verdict_ratio']:.6g}")
    print(f"unsound_passes {record['unsound_passes']} of {record['probes']} soundness probes"
          + (f" ({', '.join(record['unsound'])})" if record["unsound"] else ""))
    for w in record["wrong"]:
        print(f"WRONG: {w}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (ROOT / "src" / "amortcheck" / "__init__.py").is_file():
        print(f"error: no amortcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, args.trace)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in record["metrics"]]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    (OUT / f"{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(json.dumps(record, indent=1))
    report(record, metrics)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
