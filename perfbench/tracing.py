"""In-memory span recording around the public callables of amortcheck.

Nothing in the checker is edited: a `Tracer` wraps the callables a case
exposes (`Method.run`, `PotentialMorphism.phi`, `StateDomain.serialize`,
`explore_filter`) and the public entry points (`explore`, `check_trace`,
`registry.get_case`, `cli.main`). Each wrapped call records one span
(name, start, end, parent) into flat arrays; the spans are summarised and
written out only after the timed pass has ended.

A span's name is a layer, named after the module that owns the callable,
plus the case it belongs to. A layer's self time is the span's duration
minus the time its child spans cover.
"""

import gzip
import sys
import time
from array import array
from dataclasses import replace

from amortcheck import Continue
from amortcheck import checker, registry

IMPL = "structures.impl"
SPEC = "structures.spec"
FILTER = "structures.filter"
PHI = "coalgebra.phi"
SERIALIZE = "encoding.serialize"
EXPLORE = "checker.explore"
TRACE = "checker.trace"
GET_CASE = "registry.get_case"
MAIN = "cli.main"


def _successor_count(result):
    """Successor states a transition produced (all branches if randomized)."""
    value = getattr(result, "value", None)
    if isinstance(value, Continue):
        return len(value.states)
    dist = getattr(result, "dist", None)
    if dist is None:
        return 0
    return sum(len(o.states) for _w, o in dist.branches if isinstance(o, Continue))


class Tracer:
    def __init__(self):
        self.names = []  # (layer, case) per name id
        self._ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.phi_args = {}  # case -> states Φ was applied to
        self.keys = {}  # case -> the case's own (untraced) serializer
        self.produced = {}  # case -> successor states from impl transitions
        self.seeds = {}  # case -> number of seed states
        self.reports = {}  # case -> Report of explore

    def name_id(self, layer, case=""):
        key = (layer, case)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def _open(self, nid):
        idx = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def wrap(self, layer, case, fn, observe=None):
        """`fn` recorded as a span; `observe(args, result)` runs after it closes."""
        nid = self.name_id(layer, case)
        open_span, start, end, stack = self._open, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = open_span(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def instrument_case(self, case):
        """The same case with every user callable recorded as a span."""
        name = case.name
        args = self.phi_args.setdefault(name, [])
        self.keys[name] = case.impl.state_domain.serialize
        self.produced.setdefault(name, 0)
        self.seeds[name] = len(case.impl.seeds)

        def count_successors(_args, result):
            self.produced[name] += _successor_count(result)

        def methods(coalg, layer, observe=None):
            return tuple(
                replace(m, run=self.wrap(layer, name, m.run, observe)) for m in coalg.methods
            )

        domain = case.impl.state_domain
        impl = replace(
            case.impl,
            methods=methods(case.impl, IMPL, count_successors),
            state_domain=replace(domain, serialize=self.wrap(SERIALIZE, name, domain.serialize)),
        )
        spec = replace(case.spec, methods=methods(case.spec, SPEC))
        phi = replace(
            case.phi,
            phi=self.wrap(PHI, name, case.phi.phi, lambda a, _r: args.append(a[0])),
        )
        keep = case.explore_filter
        if keep is not None:
            keep = self.wrap(FILTER, name, keep)
        return replace(case, impl=impl, spec=spec, phi=phi, explore_filter=keep)

    def traced_explore(self, explore=checker.explore):
        def run(case, *args, **kwargs):
            span = self.wrap(EXPLORE, case.name, explore)
            report = span(case, *args, **kwargs)
            self.reports[case.name] = report
            return report

        return run

    def traced_check_trace(self, check_trace=checker.check_trace):
        def run(case, trace):
            return self.wrap(TRACE, case.name, check_trace)(case, trace)

        return run

    def traced_get_case(self, get_case=registry.get_case):
        span = self.wrap(GET_CASE, "", get_case)

        def run(name):
            return self.instrument_case(span(name))

        return run

    def summary(self):
        """Calls, total and self seconds per (layer, case) name."""
        n = len(self.name_of)
        covered = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        stats = [[0, 0.0, 0.0] for _ in self.names]
        for i in range(n):
            dur = end[i] - start[i]
            s = stats[self.name_of[i]]
            s[0] += 1
            s[1] += dur
            s[2] += dur - covered[i]
        return {key: tuple(s) for key, s in zip(self.names, stats)}

    def distinct_phi_states(self):
        return {
            case: len(set(map(self.keys[case], states)))
            for case, states in self.phi_args.items()
        }

    def write_spans(self, path):
        """Spans as gzip TSV: id, parent, layer, case, start, end (seconds)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tlayer\tcase\tstart\tend\n")
            names = self.names
            for i in range(len(self.name_of)):
                layer, case = names[self.name_of[i]]
                fh.write(
                    f"{i}\t{self.parent[i]}\t{layer}\t{case}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


def patch_everywhere(original, replacement, package="amortcheck"):
    """Rebind every module-level name in `package` bound to `original`.

    Returns a function that restores the original bindings.
    """
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr))

    def restore():
        for module, attr in undo:
            setattr(module, attr, original)

    return restore
