"""Command-line front end: run sweeps, persist CSV/JSONL results, compute gaps.

Output files are a pure function of the configuration (seed included), so
re-runs are byte-identical. Config files are flat key=value lines with `#`
comments; command-line flags override file values.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigurationError
from .harness import BerRecord, BerTable, SimulationConfig, run_point, run_sweep
from .precoder import LABELS, SchemeMode
from .randomness import STREAM_LAYOUT

# Table-style pairwise comparisons emitted per SNR: the conventional pair
# and the u>0 pair. (The unified family at u=0 is the conventional pair
# itself, so it reads the same records and gets no row of its own.)
GAP_PAIRS = (("LZFP", "LMMSEP"), ("ULZFP", "ULMMSEP"))

# The first six columns are the ones read_table_csv reads back.
RESULT_HEADER = ["snr_db", "scheme", "u", "m", "bit_errors", "bits_total",
                 "ber", "std_err", "low_confidence"]


def _boolean(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(",") if v.strip())


def _labels(raw: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in raw.split(",") if v.strip())


def _workers(raw: str) -> int:
    workers = int(raw)
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {workers}")
    return workers


def _one(read):
    """Reader of a list key given one value (point's --scheme, --point-snr): a 1-tuple."""
    def one(raw):
        return (read(raw),)
    one.__name__ = read.__name__  # argparse names the type in its messages
    return one


# Config key -> reader of its text, for file lines and for the flags that set it.
KNOWN_KEYS = {
    "tx_antennas": int, "pool_users": int, "active_users": int, "realizations": int,
    "frames": int, "symbols_per_frame": int, "seed": int,
    "snr_offset_db": float, "u": float, "m": float,
    "normalize_data_block_only": _boolean, "snr_db": _floats, "schemes": _labels,
}


def read_config_file(path: str | Path) -> dict:
    """Parse a flat key=value config file; unknown and repeated keys are errors."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text: {exc}") from exc
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(f"{path}:{lineno}: repeated key {key!r}")
        try:
            values[key] = KNOWN_KEYS[key](raw)
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: key {key!r}: {exc}") from exc
    return values


def build_config(values: dict) -> SimulationConfig:
    """SimulationConfig from parsed key=value pairs, defaults for the rest."""
    u = float(values.pop("u", 1.0))
    m = float(values.pop("m", 1.0))
    labels = values.pop("schemes", LABELS)
    schemes = tuple(SchemeMode.from_label(lbl, u=u, m=m) for lbl in labels)
    return SimulationConfig(schemes=schemes, **values)


def sci(x: float) -> str:
    """Scientific notation with 3 significant digits, e.g. 1.50e-1."""
    if x == 0:
        return "0.00e0"
    exp = math.floor(math.log10(abs(x)))
    mant = x / 10.0 ** exp
    # Rounding can push the mantissa to 10.00.
    if abs(round(mant, 2)) >= 10.0:
        mant /= 10.0
        exp += 1
    return f"{mant:.2f}e{exp}"


def result_row(r: BerRecord) -> list:
    return [r.snr_db, r.scheme_label, r.u, r.m, r.bit_errors, r.bits_total,
            sci(r.ber), sci(r.standard_error), int(r.low_confidence)]


def emit_table(table: BerTable, path: str | Path, gaps_path: str | Path) -> None:
    """Write the result CSV and the pairwise-gap CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_HEADER)
        writer.writerows(result_row(r) for r in table.records)
    emit_gaps(table, gaps_path)


def write_gaps(fh, records, snrs) -> None:
    """Gap CSV over GAP_PAIRS at each SNR; pairs with a missing record are skipped."""
    by_key = {(r.scheme_label, r.snr_db): r for r in records}
    writer = csv.writer(fh)
    writer.writerow(["snr_db", "scheme_a", "scheme_b", "gap"])
    for snr_db in snrs:
        for name_a, name_b in GAP_PAIRS:
            a = by_key.get((name_a, snr_db))
            b = by_key.get((name_b, snr_db))
            if a is not None and b is not None:
                writer.writerow([snr_db, name_a, name_b, sci(a.ber - b.ber)])


def emit_gaps(table: BerTable, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        write_gaps(fh, table.records, table.config.snr_db)


def emit_plot_data(table: BerTable, path: str | Path) -> None:
    """Long-format BER-vs-SNR series, one row per (snr, scheme)."""
    with open(path, "w", newline="") as fh:
        fh.write("# ber is best viewed on a log scale\n")
        writer = csv.writer(fh)
        writer.writerow(["snr_db", "scheme", "ber"])
        for r in table.records:
            writer.writerow([r.snr_db, r.scheme_label, sci(r.ber)])


def emit_run_log(table: BerTable, path: str | Path) -> None:
    """JSON-lines provenance log: full precision, one object per record."""
    digest = table.config.digest()
    with open(path, "w") as fh:
        for r in table.records:
            fh.write(json.dumps({
                "scheme": r.scheme_label, "u": r.u, "m": r.m, "snr_db": r.snr_db,
                "bit_errors": r.bit_errors, "bits_total": r.bits_total,
                "ber": r.ber, "std_err": r.standard_error,
                "low_confidence": r.low_confidence,
                "seed": table.config.seed, "config_sha256": digest,
                "version": table.version, "stream_layout": STREAM_LAYOUT,
            }, sort_keys=True) + "\n")


def read_table_csv(path: str | Path) -> list[BerRecord]:
    """Reconstruct records from a result CSV; exact, via the integer counts.

    The file must be UTF-8 (BOM allowed) with a header naming the record columns.
    A column or a (scheme, SNR) pair may appear once: a repeat would be ambiguous.
    Each row must have the header's number of fields and make a valid
    BerRecord; a row that does not, or cannot be parsed, is named by file and
    line.
    """
    records = {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = [c for c in RESULT_HEADER[:6] if c not in header]
            if missing:
                raise ConfigurationError(
                    f"{path}:1: missing column {', '.join(map(repr, missing))}")
            repeated = [c for i, c in enumerate(header) if c in header[:i]]
            if repeated:
                raise ConfigurationError(f"{path}:1: repeated column {repeated[0]!r}")
            for fields in filter(None, reader):  # blank lines hold no row
                try:
                    if len(fields) != len(header):
                        raise ConfigurationError(
                            f"row has {len(fields)} of the header's {len(header)} fields")
                    row = dict(zip(header, fields))
                    values = dict(
                        scheme_label=row["scheme"], u=float(row["u"]), m=float(row["m"]),
                        snr_db=float(row["snr_db"]), bit_errors=int(row["bit_errors"]),
                        bits_total=int(row["bits_total"]),
                    )
                    key = (values["scheme_label"], values["snr_db"])
                    if key in records:
                        raise ConfigurationError(
                            f"repeated record for scheme {key[0]} at {key[1]} dB")
                    records[key] = BerRecord(**values)
                except ValueError as exc:
                    raise ConfigurationError(f"{path}:{reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:  # for example a field over csv.field_size_limit()
        raise ConfigurationError(f"{path}:{reader.line_num}: {exc}") from exc
    return list(records.values())


def _config_from_args(args) -> SimulationConfig:
    """The config file's values, each replaced by the flag that sets its key."""
    values = read_config_file(args.config) if args.config else {}
    values.update((key, value) for key, value in vars(args).items()
                  if key in KNOWN_KEYS and value is not None)
    return build_config(values)


def _cmd_sweep(args) -> int:
    config = _config_from_args(args)
    out = Path(args.out)
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before the sweep
    try:
        table = run_sweep(config, workers=args.workers)
        emit_table(table, out / "results.csv", out / "gaps.csv")
        emit_plot_data(table, out / "plot.csv")
        emit_run_log(table, out / "run_log.jsonl")
    except BaseException:  # a failed sweep removes the directories it made while empty
        with contextlib.suppress(OSError):
            for d in made:
                d.rmdir()
        raise
    print(f"wrote {len(table.records)} records to {out / 'results.csv'}")
    return 0


def _cmd_point(args) -> int:
    config = _config_from_args(args)
    record = run_point(config, config.schemes[0], config.snr_db[0], workers=args.workers)
    print(",".join(RESULT_HEADER))
    print(",".join(str(v) for v in result_row(record)))
    return 0


def _cmd_gaps(args) -> int:
    records = read_table_csv(args.table)
    write_gaps(sys.stdout, records, sorted({r.snr_db for r in records}))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ulpsim",
        description="Multi-user MIMO precoding BER simulator (ZF/MMSE/unified)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run the full SNR x scheme sweep")
    sweep.set_defaults(func=_cmd_sweep)
    point = sub.add_parser("point", help="run a single (scheme, SNR) cell")
    point.set_defaults(func=_cmd_point)
    for cmd in (sweep, point):
        cmd.add_argument("--config", help="flat key=value config file")
        cmd.add_argument("--seed", type=KNOWN_KEYS["seed"], help="master seed")
        cmd.add_argument("--realizations", type=KNOWN_KEYS["realizations"],
                         help="Monte Carlo channel realizations")
        cmd.add_argument("--frames", type=KNOWN_KEYS["frames"], help="frames per realization")
        cmd.add_argument("--symbols", dest="symbols_per_frame",
                         type=KNOWN_KEYS["symbols_per_frame"], help="symbol vectors per frame")
        cmd.add_argument("--snr-offset-db", type=KNOWN_KEYS["snr_offset_db"],
                         help="global SNR calibration offset")
        cmd.add_argument("--workers", type=_workers, default=1, help="parallel workers")

    sweep.add_argument("--snr", dest="snr_db", type=KNOWN_KEYS["snr_db"],
                       help="comma-separated SNR list in dB")
    sweep.add_argument("--schemes", type=KNOWN_KEYS["schemes"],
                       help="comma-separated scheme labels")
    sweep.add_argument("--out", default=".", help="output directory")

    point.add_argument("--scheme", dest="schemes", type=_one(str), required=True,
                       help="scheme label")
    point.add_argument("--point-snr", "--snr-db", dest="snr_db", type=_one(float),
                       required=True, help="operating SNR in dB")
    point.add_argument("--u", type=KNOWN_KEYS["u"], help="augmentation weight (default 1)")
    point.add_argument("--m", type=KNOWN_KEYS["m"], help="regularizer multiplier (default 1)")

    gaps = sub.add_parser("gaps", help="pairwise BER gaps from an existing result CSV")
    gaps.add_argument("--table", required=True, help="result CSV from a sweep")
    gaps.set_defaults(func=_cmd_gaps)
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        # A non-finite precoder ends the run with exit 2 below; numpy's
        # per-operation warnings would only repeat that on stderr.
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
