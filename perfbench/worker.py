"""One fresh interpreter: set up, then run a workload's op list once.

    python3 perfbench/worker.py --mode setup|pass|trace --limit-s S [--spans FILE] < spec.json

Reads the spec that `workloads.build` made on stdin and prints one JSON line:
the set-up interval, the wall time of the whole op loop, one record per op
(outcome, interval, answer), the probe times and the peak RSS.  Ops run in a
closed loop, one at a time, each under a wall-clock limit (SIGALRM), so a
call that does not return becomes a failed op.  The run as a whole stops
starting ops once `--limit-s` has passed.  Between ops, at most every
PROBE_EVERY_S, the worker times a fixed probe (`make_probe`); the loop's wall
time leaves the probes out.

Every CLI op starts from cold `catalog` caches, as a new `contracta`
process would.  Library ops share the caches of this process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
import time

OP_LIMIT_S = 60.0
PROBE_EVERY_S = 0.5  # a pass times the probe again before the first op after this
SETUP_PROBES = 5
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class OpTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so library `except Exception`
    handlers cannot swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def _setup(spec, tracer):
    """Import the package and load the catalog entries the workload uses;
    returns the (start, end) of that interval, the entries, and the lru
    caches a CLI process starts without (taken before any wrapping)."""
    t0 = time.perf_counter()
    import contracta.cli  # noqa: F401  (imports every module the CLI serves)
    from contracta import catalog

    caches = [v for v in vars(catalog).values() if callable(getattr(v, "cache_clear", None))]
    if tracer is not None:
        tracer.install()
    names = {op["group"] for op in spec["ops"] if "group" in op}
    names |= {p["group"] for p in spec["pipes"].values() if "group" in p}
    if spec["workload"] == "converge":
        names.add("grigorchuk")
    entries = {name: catalog.load(name) for name in sorted(names)}
    return (t0, time.perf_counter()), entries, caches


def make_probe():
    """A fixed slice of interpreter work that never touches `contracta`: the
    tree oracle's ball sizes of the Basilica group's level-9 image.  It times
    how fast the host runs Python code of the workloads' kind at the moment,
    with the garbage collector off, so the program's heap cannot slow it."""
    import oracle
    import workloads

    basilica = workloads.load_rec(ROOT, "basilica")

    def probe():
        gc.disable()
        try:
            t0 = time.perf_counter()
            oracle.action_for(basilica, 9).ball_sizes(5)
            return time.perf_counter() - t0
        finally:
            gc.enable()

    return probe


class Runner:
    def __init__(self, spec, entries, caches):
        from contracta import cli, contraction, covers, cosets, grig, growth
        from contracta import recursion, rewriting, words

        self.entries = entries
        # modules, not functions: attributes are looked up at call time, so a
        # traced pass calls the wrappers that spans.py installed
        self.m = dict(cli=cli, contraction=contraction, covers=covers, cosets=cosets,
                      grig=grig, growth=growth, rewriting=rewriting, words=words)
        self.caches = caches
        self.pipes = {}
        for pid, pipe in spec["pipes"].items():
            if "group" in pipe:
                entry = entries[pipe["group"]]
                self.pipes[pid] = {"rec": entry.recursion, "budget": {},
                                   "prune": entry.facts.get("cover_prune", False)}
            else:
                r = pipe["rec"]
                rec = recursion.WreathRecursion(
                    r["degree"], tuple(r["gens"]),
                    tuple(tuple(tuple(w) for w in row) for row in r["sections"]),
                    tuple(tuple(p) for p in r["perms"]))
                budget = {"budget": contraction.Budget(**pipe["budget"])}
                self.pipes[pid] = {"rec": rec, "budget": budget, "prune": False}

    # -- ops: `prepare` builds the call, untimed; the call itself is timed --

    def prepare(self, op):
        m = self.m
        kind = op["kind"]
        if kind == "wp":
            g, w = self.entries[op["group"]], tuple(op["word"])
            return lambda: g.is_trivial(w)
        if kind == "growth":
            g, n = self.entries[op["group"]], op["n"]
            return lambda: m["growth"].ball_sizes(g.equal, len(g.gens), n, name=g.name,
                                                  invariant=g.invariant)
        if kind == "growth_f2":
            return lambda: m["growth"].ball_sizes(lambda u, v: u == v, 2, op["n"],
                                                  invariant=lambda w: w)
        if kind == "cli":
            for cache in self.caches:
                cache.cache_clear()
            return lambda: self._cli(op["argv"])
        if kind == "tc":
            pres = m["grig"].g_n_presentation(op["n"])
            sub = op["subgroup"]
            gens = {"xi0": m["grig"].XI0_GENS, "b0": m["grig"].B0_GENS,
                    "k0": m["grig"].K0_GENS}.get(sub)
            if gens is None:
                gens = m["grig"].h_n_generators(int(sub[1:]))
            kwargs = {"max_cosets": op["max_cosets"]} if op["max_cosets"] else {}
            return lambda: m["cosets"].enumerate_cosets(pres, gens, **kwargs)
        if kind == "kb_gn":
            pres = m["grig"].g_n_presentation(op["n"])
            return lambda: (m["rewriting"].complete(pres), pres)
        return self._stage(op)

    def _stage(self, op):
        m, pipe = self.m, self.pipes[op["pipe"]]
        kind = op["kind"]
        if pipe.get("dead"):
            return None
        if kind == "nucleus":
            return lambda: m["contraction"].nucleus(pipe["rec"], **pipe["budget"])
        if kind == "universal_cover":
            return lambda: m["covers"].universal_cover(
                pipe["nucleus"], prune=pipe["prune"], **pipe["budget"])
        if kind == "complete":
            return lambda: m["rewriting"].complete(pipe["universal_cover"].presentation)
        return lambda: m["covers"].standard_cover(
            pipe["universal_cover"], sys=pipe["complete"], **pipe["budget"])

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.m["cli"].main(argv)
        return rc, out.getvalue(), err.getvalue()

    def record(self, op, result):
        """Keep a pipeline stage's result for the next stage; an incomplete
        rewriting system ends the pipeline like a budget does."""
        if "pipe" not in op:
            return
        pipe = self.pipes[op["pipe"]]
        if result is None or (op["kind"] == "complete" and not result.complete):
            pipe["dead"] = True
        else:
            pipe[op["kind"]] = result

    # -- answers, extracted after the timed loop -----------------------------

    def answer(self, op, result):
        m, kind = self.m, op["kind"]
        if kind == "wp":
            return bool(result)
        if kind in ("growth", "growth_f2"):
            return list(result.gamma)
        if kind == "cli":
            rc, out, err = result
            try:
                doc = json.loads(out) if rc == 0 else None
            except ValueError:
                doc = None
            return {"rc": rc, "doc": doc, "stderr": err[-200:]}
        if kind == "tc":
            return result.index
        if kind == "kb_gn":
            system, pres = result
            return self._system_answer(system, pres)
        if kind == "nucleus":
            return {"size": len(result), "elements": [list(e) for e in result.elements],
                    "sections": [list(s) for s in result.sections],
                    "inverses": list(result.inverses), "perms": [list(p) for p in result.perms],
                    "identity": result.identity}
        if kind == "universal_cover":
            gens = result.presentation.gens
            rels = result.presentation.relators
            return {"relators": [m["words"].format_word(r, gens) for r in rels],
                    "relator_base_words": [list(result.to_base(r)) for r in rels]}
        if kind == "complete":
            return self._system_answer(result, self.pipes[op["pipe"]]["universal_cover"].presentation)
        cover = self.pipes[op["pipe"]]["universal_cover"]
        return {"self_replicating": result.already_self_replicating,
                "extra_base_words": [list(cover.to_base(w)) for w in result.extra_relators]}

    @staticmethod
    def _system_answer(system, pres):
        reduce_ok = system.complete and all(system.rewrite(r) == () for r in pres.relators)
        return {"complete": system.complete, "rules": len(system.rules),
                "relators_reduce": reduce_ok}


def run(spec, mode, limit_s, spans_path=None):
    """Times are (start, end) pairs of perf_counter readings."""
    deadline = time.monotonic() + limit_s
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
    setup, entries, caches = _setup(spec, tracer)
    probe = make_probe()  # after the timed set-up, so its imports do not speed that up
    if mode == "setup":
        return {"setup": setup, "probes": [probe() for _ in range(SETUP_PROBES)]}
    from contracta.errors import BudgetExceeded

    runner = Runner(spec, entries, caches)
    signal.signal(signal.SIGALRM, _alarm)
    records, results, probes = [], [], []
    loop_t0 = next_probe = time.perf_counter()
    for i, op in enumerate(spec["ops"]):
        if time.perf_counter() >= next_probe:
            probes.append(probe())
            next_probe = time.perf_counter() + PROBE_EVERY_S
        call = runner.prepare(op)
        result, outcome, interval = None, "ok", (0.0, 0.0)
        left = deadline - time.monotonic()
        if call is None:
            outcome = "skipped"
        elif left <= 0:
            outcome = "timeout"
        else:
            if tracer is not None:
                tracer.begin_op(i)
            t0 = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, min(OP_LIMIT_S, left))
                try:
                    result = call()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except BudgetExceeded:
                outcome = "budget"
            except OpTimeout:
                outcome = "timeout"
            except Exception as e:  # a crash is a failed op, not a failed run
                outcome = "error"
                result = f"{type(e).__name__}: {e}"
            interval = (t0, time.perf_counter())
            if tracer is not None:
                tracer.end_op()
        runner.record(op, result if outcome == "ok" else None)
        records.append({"outcome": outcome, "t": interval})
        results.append(result)
    probes.append(probe())
    loop_s = time.perf_counter() - loop_t0 - sum(probes)
    for op, rec, result in zip(spec["ops"], records, results):
        if rec["outcome"] == "ok":
            rec["answer"] = runner.answer(op, result)
        elif rec["outcome"] == "error":
            rec["answer"] = result
    out = {"setup": setup, "loop_s": loop_s, "probes": probes, "ops": records,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.write(spans_path)
        out["counts"] = tracer.counts
    return out


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    p.add_argument("--limit-s", type=float, required=True)
    p.add_argument("--spans")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    spec = json.load(sys.stdin)
    out = run(spec, args.mode, args.limit_s, args.spans)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
