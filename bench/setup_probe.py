"""Child process that measures set-up time for ``setup_s``.

Usage: python3 bench/setup_probe.py SRC START CONFIG

Imports stochavg from SRC, builds the SystemSpec named by CONFIG (a config
path or ``acceptance``) and every averaged polynomial of it, then prints the
seconds elapsed since START, a ``time.monotonic()`` reading the parent took
just before starting this process (the clock is system-wide on Linux).
"""

import sys
import time
from pathlib import Path


def main(argv):
    src, start, config = Path(argv[0]).resolve(), float(argv[1]), argv[2]
    sys.path.insert(0, str(src))
    import stochavg
    from stochavg import averaging

    if src not in Path(stochavg.__file__).resolve().parents:
        print(f"stochavg imported from {stochavg.__file__}, not {src}", file=sys.stderr)
        return 2
    if config == "acceptance":
        spec = stochavg.acceptance_system()
    else:
        spec = stochavg.parse_system_text(Path(config).read_text(encoding="utf-8")).spec
    averaging.averaged_field_polys(spec.drift_polys, spec.n)
    averaging.averaged_field_polys(spec.p1_polys, spec.n)
    averaging.averaged_diffusion_polys(spec.psi_polys)
    averaging.action_drift_polys(spec)
    averaging.action_diffusion_polys(spec)
    print(repr(time.monotonic() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
