"""One fresh process: set up one workload, run one pass, report as JSON.

    python3 perfbench/worker.py --workload all --seed 1 [--traced] [--spans FILE]
    python3 perfbench/worker.py --workload all --seed 1 --setup-only
    python3 perfbench/worker.py --workload all --seed 1 --controls

The pass is timed with tracing off unless --traced is given. The last line
of standard output is one JSON object. amortcheck is imported from the
checkout's `src/`, never from an installed copy.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from gauge import SpeedGauge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_amortcheck():
    if not (SRC / "amortcheck" / "__init__.py").is_file():
        sys.exit(f"error: no amortcheck sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import amortcheck.cli

    if Path(amortcheck.__file__).resolve().parent != SRC / "amortcheck":
        sys.exit(f"error: imported amortcheck from {amortcheck.__file__}, not {SRC}")


def _layer_stats(tracer):
    """Per-(layer, case) span totals plus the explore-side counts."""
    return {
        "stats": [[layer, case, *s] for (layer, case), s in tracer.summary().items()],
        "phi_distinct": tracer.distinct_phi_states(),
        "produced": tracer.produced,
        "seeds": tracer.seeds,
        "explored": {
            name: [r.states_explored, r.squares_checked] for name, r in tracer.reports.items()
        },
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--controls", action="store_true")
    mode.add_argument("--traced", action="store_true")
    p.add_argument("--spans", default=None, help="write the traced pass's spans here")
    args = p.parse_args()

    # Set-up is the import of amortcheck plus case construction; the
    # harness's own `workloads` import between them is left out.
    with SpeedGauge() as gauge:
        t0 = time.perf_counter()
        _import_amortcheck()
        import_s = time.perf_counter() - t0 - gauge.spent_s
        import workloads

        spent = gauge.spent_s
        t1 = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed)
        setup_s = import_s + time.perf_counter() - t1 - (gauge.spent_s - spent)
    out = {"setup_s": setup_s, "setup_gauge_s": gauge.samples}

    if args.controls:
        checked, wrong = workloads.negative_controls(args.seed)
        probes, unsound = workloads.soundness_probes(args.seed)
        out.update(attempted=checked, wrong=wrong, probes=probes, unsound=unsound)
    elif not args.setup_only:
        workload.prepare()
        tracer = None
        if args.traced:
            from tracing import Tracer

            tracer = Tracer()
            t2 = time.perf_counter()
            result = workload.run(tracer)
            verdict_s = time.perf_counter() - t2
        else:
            # The gauge's snippets would land inside traced spans; only
            # untraced passes carry them.
            with SpeedGauge() as gauge:
                t2 = time.perf_counter()
                result = workload.run(None)
                verdict_s = time.perf_counter() - t2 - gauge.spent_s
            out["gauge_s"] = gauge.samples
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, wrong, work = workload.check(result)
        out.update(verdict_s=verdict_s, peak_rss_mib=peak, attempted=attempted,
                   wrong=wrong, work=work)
        if tracer is not None:
            out["layers"] = _layer_stats(tracer)
            if args.spans:
                tracer.write_spans(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
