"""One benchmark process: import hodgekit, warm up, run the closed loop.

Usage: python3 worker.py CONFIG.json

CONFIG names the plan (the request mix), the hodgekit source directory,
the mode and the output file.  Modes:
  setup   import hodgekit and run the first request once, timed together;
  timed   the same, then whole rounds of the mix until the requests have
          taken `seconds` in total;
  traced  as timed, but rounds alternate between untraced and traced, so
          both see the same process state, and each side gets half of
          `seconds`.

One client sends each request when the previous one returns.  Requests
run in this process: a CLI request is one ``hodgekit.cli.main(argv)``
call with stdout and stderr captured, a library request is one call.
Only the call itself is timed; the check of its output is not.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        config = json.load(fh)
    with open(config["plan"], encoding="utf-8") as fh:
        plan = json.load(fh)

    t0 = time.perf_counter()
    sys.path.insert(0, config["src"])
    import hodgekit.cli
    import hodgekit.io
    import hodgekit.sheaf

    warm = guarded(plan[0], hodgekit)
    setup_s = time.perf_counter() - t0
    if not hodgekit.__file__.startswith(config["src"]):
        raise SystemExit(f"imported hodgekit from {hodgekit.__file__}, not {config['src']}")

    from checks import Checker
    import resource

    checker = Checker()
    result = {"setup_s": setup_s, "warmup_error": verdict(checker, plan[0], warm)}
    if config["mode"] != "setup":
        result.update(loop(plan, config, checker, hodgekit))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(config["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def run(req: dict, hodgekit):
    """Run one request; return (latency_s, exit code, stdout, value)."""
    if "library" in req:
        lib = req["library"]
        t0 = time.perf_counter()
        c = hodgekit.io.parse_complex(hodgekit.io.load_json(lib["complex"]))
        sh = hodgekit.io.parse_sheaf(hodgekit.io.load_json(lib["sheaf"]), c)
        value = getattr(hodgekit.sheaf, lib["call"])(c, sh, lib["dim"])
        return time.perf_counter() - t0, 0, "", value
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = hodgekit.cli.main(req["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return time.perf_counter() - t0, code, out.getvalue(), None


def guarded(req: dict, hodgekit, call=None):
    """Run a request, turning an unexpected exception into a failure."""
    t0 = time.perf_counter()
    try:
        return call(lambda: run(req, hodgekit)) if call else run(req, hodgekit)
    except Exception as exc:  # a crash is a failed request, not a stopped run
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}", None


def verdict(checker, req: dict, outcome) -> str | None:
    latency, code, stdout, value = outcome
    if code is None:
        return f"raised {stdout}"
    try:
        return checker.check(req["check"], code, stdout, value)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def loop(plan, config, checker, hodgekit) -> dict:
    """Whole rounds of the mix until the untraced requests fill their time."""
    tracer = None
    budget = config["seconds"]
    if config["mode"] == "traced":
        from tracer import Tracer

        tracer = Tracer()
        budget /= 2
    rounds = {"untraced": [], "traced": []}
    failures = []
    busy = 0.0
    index = 0
    while True:
        side = "traced" if tracer and len(rounds["untraced"]) > len(rounds["traced"]) else "untraced"
        if side == "untraced" and busy >= budget:
            break
        if side == "traced":
            tracer.install()
        latencies = []
        ok = []
        for req in plan:
            call = (lambda f, i=index: tracer.request(i, f)) if side == "traced" else None
            outcome = guarded(req, hodgekit, call)
            why = verdict(checker, req, outcome)
            latencies.append(outcome[0])
            ok.append(why is None)
            if why is not None:
                failures.append({"request": req["name"], "side": side, "why": why,
                                 "known_defect": req["known_defect"]})
            index += 1
        if side == "traced":
            tracer.uninstall()
        rounds[side].append({"latencies": latencies, "ok": ok})
        if side == "untraced":
            busy += sum(latencies)
    out = {"rounds": rounds, "failures": failures}
    if tracer:
        from tracer import layer_metrics, self_times

        selfs, problems = self_times(tracer.spans)
        out["layers"] = layer_metrics(tracer.spans, selfs, len(plan) * len(rounds["traced"]))
        out["trace_problems"] = problems[:20]
        out["missing_targets"] = tracer.missing
        with open(config["spans"], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["request", "span", "parent", "name", "t0", "t1", "sizes"],
                       "spans": tracer.spans}, fh)
    return out


if __name__ == "__main__":
    sys.exit(main())
