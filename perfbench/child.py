"""One benchmark sample, run in a fresh interpreter.

    python3 perfbench/child.py '<json spec>'

The spec names the preset, the --set settings, the output directory and
whether to trace.  The process imports `nullctrl.cli`, resolves and
validates the workload's configuration, and prints `READY` (the parent
times set-up up to that line).  Unless the spec asks for set-up only, it
then runs `nullctrl.cli.run` once and prints one `RESULT <json>` line with
the run's wall time, its peak resident memory and, when traced, the
per-layer metrics and layer self times of its spans.  Program output goes
to standard error.
"""

import contextlib
import json
import os
import resource
import sys
import time


def main():
    spec = json.loads(sys.argv[1])
    import nullctrl.cli
    from nullctrl import config

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(nullctrl.cli.__file__).startswith(src + os.sep):
        sys.exit(f"nullctrl imported from {nullctrl.cli.__file__}, "
                 f"not from {src}")
    cfg = config.from_preset(spec["preset"])
    for key, value in spec["settings"]:
        cfg = config.apply_setting(cfg, key, str(value))
    config.validate(cfg)
    print("READY", flush=True)
    if spec["setup_only"]:
        return

    rec = None
    if spec["trace"]:
        import tracing
        rec = tracing.Recorder(run_id=spec["run_id"])
        tracing.install(rec)
    with contextlib.redirect_stdout(sys.stderr):
        t0 = time.perf_counter()
        if rec is None:
            rc = nullctrl.cli.run(spec["argv"])
        else:
            rc = rec.call("cli.run", nullctrl.cli.run, spec["argv"])
        run_s = time.perf_counter() - t0
    result = {"rc": rc, "run_s": run_s,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if rec is not None:
        rec.restore()
        result["spans"] = len(rec.spans)
        result["layers"] = tracing.layer_metrics(rec.spans)
        result["self_s"] = tracing.layer_self_times(rec.spans)
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
