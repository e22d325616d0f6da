#!/usr/bin/env python3
"""Rebuild bench/reference.json, the stored reference of the record checks.

    python3 bench/make_reference.py

It holds two things:

- `cells`: for every (scheme, effective SNR) the workloads use, the mean
  BER, the spread of per-realization BER between channels and the worst
  realization's BER, from REALIZATIONS realizations of 1 frame x 100
  symbol vectors each on a master seed no workload uses. The spread excludes the binomial spread of
  the bits within a realization, which the checker adds back for the frame
  size it checks.
- `exact`: the error counts of the first table of the default benchmark
  seed, per workload and size, for the bit-exact `results_exact`
  diagnostic.

Rebuild it only when the program's statistics are meant to change; a
stream-layout change leaves `cells` valid and shows in `results_exact`.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import multiprocessing  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from checks import REFERENCE_PATH, cell_key  # noqa: E402
from tracing import realization_errors  # noqa: E402
from ulpsim.harness import SimulationConfig  # noqa: E402
from ulpsim.precoder import SchemeMode  # noqa: E402
from workloads import GRID_OFFSETS, LABELS, NPROC, SIZES, SNRS, exact_check_table  # noqa: E402

REFERENCE_SEED = 0x5EED_0BE7
REALIZATIONS = 40000
FRAMES, SYMBOLS = 1, 100
BITS = FRAMES * SYMBOLS * 16


def cell_stats(task):
    label, snr_db, n = task
    config = SimulationConfig(frames=FRAMES, symbols_per_frame=SYMBOLS, seed=REFERENCE_SEED)
    scheme = SchemeMode.from_label(label)
    ber = np.array([realization_errors(config, scheme, snr_db, i) for i in range(n)]) / BITS
    p = float(ber.mean())
    # Var(observed) = Var(channel BER) + E[b(1-b)] / BITS; keep the channel part.
    channel_var = float(ber.var(ddof=1) - np.mean(ber * (1 - ber)) / (BITS - 1))
    return cell_key(label, snr_db), {"ber": p, "channel_var": max(channel_var, 0.0),
                                     "ber_max": float(ber.max()), "realizations": n,
                                     "bits_per_realization": BITS}


def exact_tables(work: Path) -> dict:
    exact = {}
    for size, workloads in SIZES.items():
        for name, workload in workloads.items():
            config_path = work / f"{size}-{name}.cfg"
            config_path.write_text(workload.config_text())
            table = exact_check_table(workload, config_path, work)
            if table.error:
                raise RuntimeError(f"{size}/{name}: {table.error}")
            exact[f"{size}/{name}"] = [[r.scheme, r.snr_db, r.offset_db, r.bit_errors,
                                        r.bits_total] for r in table.records]
    return exact


def main() -> None:
    snrs = sorted({snr + off for snr in SNRS for off in GRID_OFFSETS})
    tasks = [(label, snr, REALIZATIONS) for label in LABELS for snr in snrs]
    with multiprocessing.get_context("spawn").Pool(NPROC) as pool:
        cells = dict(pool.map(cell_stats, tasks, chunksize=1))
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        exact = exact_tables(Path(tmp))
    REFERENCE_PATH.write_text(json.dumps({
        "reference_seed": REFERENCE_SEED, "cells": cells, "exact": exact,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}: {len(cells)} cells, {len(exact)} exact tables")


if __name__ == "__main__":
    main()
