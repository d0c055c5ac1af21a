"""One `datarecon attack` run in this process, through the package's own
command-line entry point, with the entry to and exit from ``run_attack``
stamped on the system-wide monotonic clock.

    python3 perfbench/child.py CONFIG TIMING_JSON [--draws NPY] [--spans CSV]

With --draws, the posterior draws the attack samples are also saved there
(numpy .npy) for the output checks. With --spans, spans around the
package's layers are recorded as well and written there at the end (see
tracer.py). Exits with the command's code.
"""

import argparse
import json
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("config")
    ap.add_argument("timing")
    ap.add_argument("--draws")
    ap.add_argument("--spans")
    args = ap.parse_args()
    t_import = time.monotonic()
    import datarecon.cli as cli
    stamps = {"import_ms": (time.monotonic() - t_import) * 1e3}

    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    if args.draws:
        import numpy as np

        rwm_draws = cli.rwm_draws

        def saving_rwm_draws(*a, **kw):
            draws = rwm_draws(*a, **kw)
            np.save(args.draws, draws.draws)
            return draws

        cli.rwm_draws = saving_rwm_draws

    run_attack = cli.run_attack

    def stamped_run_attack(*a, **kw):
        stamps["enter"] = time.monotonic()
        try:
            return run_attack(*a, **kw)
        finally:
            stamps["exit"] = time.monotonic()

    cli.run_attack = stamped_run_attack
    try:
        cli.main(["attack", "--config", args.config], prog_name="datarecon")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(args.timing, "w") as fh:
            json.dump(stamps, fh)
        if tracer is not None:
            tracer.write(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
