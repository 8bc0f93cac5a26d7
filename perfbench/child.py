"""One fresh interpreter of the benchmark; prints one JSON line last.

    child.py setup CONFIG                  import mfbsde, parse the config
    child.py study CONFIG OUT COMMAND      ... then run the study through mfbsde.cli.main
    child.py trace CONFIG OUT COMMAND SPANS  ... the same, with spans, written to SPANS
    child.py import                        time ``import mfbsde`` alone

``ready`` is the ``time.perf_counter()`` reading once ``mfbsde`` is imported
and the config parsed; the parent subtracts its own reading taken just before
it started this process (both read the system-wide monotonic clock).
"""

import json
import sys
import time


def _ready(config_path: str) -> dict:
    import mfbsde.cli  # noqa: F401  (the command's own import chain)
    from mfbsde.harness import parse_config

    with open(config_path) as fh:
        parse_config(fh.read())
    return {"ready": time.perf_counter(), "package": mfbsde.__file__}


def _study(config_path: str, out: str, command: str, spans_path: str | None) -> dict:
    result = _ready(config_path)
    import resource

    import mfbsde.cli

    argv = [command, "--config", config_path, "--out", out]
    rec = None
    main = mfbsde.cli.main
    if spans_path is not None:
        import tracing

        rec = tracing.Recorder()
        result["bindings"] = tracing.install(rec)
        main = rec.wrap(tracing.ROOT, main)
    start = time.perf_counter()
    rc = main(argv)
    result["study_s"] = time.perf_counter() - start
    result["rc"] = rc
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        result["layers"] = tracing.layer_metrics(rec)
        result["reported_s"] = tracing.reported_total_s(rec)
        with open(spans_path, "w") as fh:
            json.dump([[s.name, s.start, s.end, s.parent] for s in rec.spans], fh)
    return result


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        result = _ready(argv[1])
    elif mode == "study":
        result = _study(argv[1], argv[2], argv[3], None)
    elif mode == "trace":
        result = _study(argv[1], argv[2], argv[3], argv[4])
    elif mode == "import":
        start = time.perf_counter()
        import mfbsde  # noqa: F401

        result = {"import_s": time.perf_counter() - start}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
