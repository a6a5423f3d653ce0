"""Set-up time of a fresh crystalcalc process, as a user pays it per call.

    python3 setup_probe.py START SRC [ALGEBRA:p:N:E ...]

START is ``time.monotonic()`` read by the parent just before it spawned this
process.  The probe imports crystalcalc from SRC, loads each algebra the way
the command line does, and prints the seconds elapsed since START.  Then it
times the reference kernel of ``speed.py`` a few times and prints the median,
so that the parent can scale the set-up time to the machine's current speed.
"""

import statistics
import sys
import time


def main():
    start, src, specs = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    import crystalcalc  # noqa: F401  (the whole package, as the CLI loads it)
    from crystalcalc import cli
    from crystalcalc.ring import ZpN
    for spec in specs:
        name, p, N, E = spec.split(":")
        cli.load_algebra(name, ZpN(int(p), int(N)), int(E))
    elapsed = time.monotonic() - start

    import speed
    kernel = []
    for _ in range(15):
        t = time.perf_counter()
        speed.reference_kernel()
        kernel.append(time.perf_counter() - t)
    print(elapsed, statistics.median(kernel))


if __name__ == "__main__":
    main()
