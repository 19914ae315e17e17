"""Child-process entry points of the benchmark (never run by hand).

    child.py setup <workload> <seed>     set a warm workload up, print "ready"
    child.py import                      print the seconds `import nilforms.cli` takes
    child.py cli <0|1> <side> -- ARGV    run the nilforms CLI on ARGV, traced when 1

The ``cli`` mode writes the CLI's stdout and exit code through unchanged and
puts its measurements in ``<side>.json`` (and, traced, the profile in
``<side>.prof``).
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _cli(traced: bool, side: str, argv: list) -> int:
    if traced:
        import cProfile
        import pstats

        import tracing

        prof_import = cProfile.Profile()
        prof_import.enable()
    t0 = time.perf_counter()
    import nilforms.cli

    import_s = time.perf_counter() - t0
    if traced:
        prof_import.disable()
        tracer = tracing.Tracer()
        tracer.install()
        prof = cProfile.Profile()
        prof.enable()
    t1 = time.perf_counter()
    try:
        rc = nilforms.cli.main(argv)
    finally:
        work_s = time.perf_counter() - t1
        out = {"import_s": import_s, "work_s": work_s}
        if traced:
            prof.disable()
            tracer.uninstall()
            out.update(tracer.export())
            out["uncovered"] = tracing.uncovered(pstats.Stats(prof), tracer.spans, tracer.wrapped)
            merged = pstats.Stats(prof_import)
            merged.add(prof)
            merged.dump_stats(side + ".prof")
        with open(side + ".json", "w", encoding="utf-8") as fh:
            json.dump(out, fh)
    return rc


def main(args: list) -> int:
    mode = args[0]
    if mode == "setup":
        import workloads

        workloads.WORKLOADS[args[1]](int(args[2]))
        print("ready", flush=True)
        return 0
    if mode == "import":
        t0 = time.perf_counter()
        import nilforms.cli  # noqa: F401

        print(repr(time.perf_counter() - t0), flush=True)
        return 0
    if mode == "cli":
        sep = args.index("--")
        return _cli(args[1] == "1", args[2], args[sep + 1:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
