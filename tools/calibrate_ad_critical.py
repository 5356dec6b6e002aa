#!/usr/bin/env python3
"""Monte Carlo calibration of the 5% critical value for the modified A^2.

Draws 100k standard-normal samples at each of several sizes, in blocks of
about 2^21 values (the same stream as one draw: max RSS ~72 MB), computes
the Anderson-Darling statistic with estimated mean/variance and the
(1 + 0.75/n + 2.25/n^2) small-sample factor (``ad_statistic``), and
reports the empirical 95th percentile.  The frozen constant
AD_CRITICAL_5PCT in fgn_toolkit.analyze comes from this script; rerun it
to reproduce (about 33 s on a 2-vCPU host):

    PYTHONPATH=src python tools/calibrate_ad_critical.py
"""

import numpy as np

from fgn_toolkit.analyze import ad_statistic

REPS = 100_000
SIZES = (64, 256, 1024, 4096)
SEED = 20250808


def main() -> None:
    rng = np.random.default_rng(SEED)
    for n in SIZES:
        stats = np.empty(REPS)
        done = 0
        block = max(1, 2**21 // n)
        while done < REPS:
            take = min(block, REPS - done)
            stats[done : done + take] = ad_statistic(rng.standard_normal((take, n)))
            done += take
        print(f"n={n}: 95th percentile = {np.quantile(stats, 0.95):.4f}")


if __name__ == "__main__":
    main()
