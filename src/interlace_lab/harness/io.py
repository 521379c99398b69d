"""CSV and config-file plumbing for the CLI and campaigns."""
from __future__ import annotations

import configparser
import csv
import os
from itertools import repeat
from typing import Iterable, Mapping, Optional

import numpy as np

CSV_SCHEMA = 1


def _is_column(value) -> bool:
    return isinstance(value, (list, tuple)) or (isinstance(value, np.ndarray) and value.ndim > 0)


def _column(value, n):
    """One block column as a sequence the csv module writes as it would
    write each of its cells: float64 arrays as the shortest round-trip
    text, other arrays and lists cell by cell, a scalar once for all n rows."""
    if not _is_column(value):
        return repeat("" if value is None else value if isinstance(value, str) else str(value), n)
    if isinstance(value, np.ndarray):
        if value.dtype == np.float64:
            return list(map(repr, value.tolist()))
        return value.tolist() if value.dtype.kind in "iub" else list(value)
    return value


def _block_len(block) -> int:
    lens = {len(v) for v in block.values() if _is_column(v)}
    if len(lens) > 1:
        raise ValueError(f"CSV block columns differ in length: {sorted(lens)}")
    return lens.pop() if lens else 1


def write_csv(path_or_buf, fieldnames, blocks: Iterable[Mapping]) -> None:
    """CSV with a leading '#schema=N' comment line for downstream plotting.

    Each block maps a field name to a 1-D array, a list, or a scalar
    repeated over the block; a block of scalars alone is one row, and a
    field the block lacks is written empty.  Blocks are written in turn,
    so a generator of blocks streams the file.
    """
    own = isinstance(path_or_buf, (str, os.PathLike))
    fh = open(path_or_buf, "w", newline="") if own else path_or_buf
    try:
        fh.write(f"#schema={CSV_SCHEMA}\n")
        w = csv.writer(fh)
        w.writerow(fieldnames)
        for block in blocks:
            n = _block_len(block)
            w.writerows(zip(*(_column(block.get(f, ""), n) for f in fieldnames)))
    finally:
        if own:
            fh.close()


def rows_block(fieldnames, rows: Iterable[Mapping]) -> dict:
    """Dict rows as one block: a field a row lacks is empty, and keys
    outside fieldnames are dropped."""
    rows = list(rows)
    return {f: [r.get(f, "") for r in rows] for f in fieldnames}


class ConfigError(ValueError):
    """A config file that cannot be read, or lacks the section asked for."""


def read_config(path: str, section: str = "campaign") -> dict:
    """Flat key=value config with bracketed section headers."""
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_string(fh.read())
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror}") from None
    except configparser.Error as e:
        first = str(e).splitlines()[0]
        raise ConfigError(f"config file {path} is not key = value lines under [{section}]: "
                          f"{first}") from None
    if section not in cp:
        raise ConfigError(f"missing [{section}] section in {path}")
    return dict(cp[section])


def ensure_outdir(out: Optional[str]) -> Optional[str]:
    if out is None:
        return None
    os.makedirs(out, exist_ok=True)
    return out
