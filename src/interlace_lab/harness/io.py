"""CSV and config-file plumbing for the CLI and campaigns."""
from __future__ import annotations

import configparser
import os
from itertools import islice, repeat
from typing import Iterable, Mapping, Optional

import numpy as np

CSV_SCHEMA = 1
#: rows per write; bounds the text held beside one block's columns
ROWS_PER_WRITE = 4096
#: characters that make the csv module quote a cell (QUOTE_MINIMAL, CRLF rows)
_SPECIAL = (",", '"', "\r", "\n")


def _is_column(value) -> bool:
    return isinstance(value, (list, tuple)) or (isinstance(value, np.ndarray) and value.ndim > 0)


def _text(v) -> str:
    return "" if v is None else v if isinstance(v, str) else str(v)


def _quote(t: str, lone: bool) -> str:
    """t as the csv module writes it: quoted, with its quotes doubled, when
    it holds a special character, or when it is the empty cell of a
    one-field row."""
    if any(c in t for c in _SPECIAL) or (lone and not t):
        return '"' + t.replace('"', '""') + '"'
    return t


def _cells(values, lone: bool) -> list:
    """A column's cell texts.  One join over the column finds both a cell
    that is not text yet and any cell that needs quoting, so a text column
    that needs none is passed through as it is."""
    texts = values if isinstance(values, list) else list(values)
    try:
        joined = "".join(texts)
    except TypeError:  # a cell that is not str: None, a number, a bool
        texts = list(map(_text, texts))
        joined = "".join(texts)
    if any(c in joined for c in _SPECIAL) or (lone and "" in texts):
        return [_quote(t, lone) for t in texts]
    return texts


def _column(value, n, lone: bool):
    """One block column as cell texts: float64 arrays by their shortest
    round-trip text, int and bool arrays by str, a scalar once for all n
    rows, and any other column cell by cell."""
    if not _is_column(value):
        return repeat(_quote(_text(value), lone), n)
    if isinstance(value, np.ndarray):
        if value.dtype == np.float64:
            return list(map(repr, value.tolist()))
        if value.dtype.kind in "iub":
            return list(map(str, value.tolist()))
    return _cells(value, lone)


def _block_len(block) -> int:
    lens = {len(v) for v in block.values() if _is_column(v)}
    if len(lens) > 1:
        raise ValueError(f"CSV block columns differ in length: {sorted(lens)}")
    return lens.pop() if lens else 1


def _write_block(fh, fieldnames, block) -> None:
    """Write one block's rows in slices of ROWS_PER_WRITE; the block's cell
    texts live only for this call."""
    n = _block_len(block)
    lone = len(fieldnames) == 1
    rows = map(",".join, zip(*(_column(block.get(f, ""), n, lone) for f in fieldnames)))
    while chunk := list(islice(rows, ROWS_PER_WRITE)):
        fh.write("\r\n".join(chunk) + "\r\n")


def write_csv(path_or_buf, fieldnames, blocks: Iterable[Mapping]) -> None:
    """CSV with a leading '#schema=N' comment line for downstream plotting.

    The bytes are those of the csv module's writer (QUOTE_MINIMAL, CRLF row
    ends).  Each block maps a field name to a 1-D array, a list, or a
    scalar repeated over the block; a block of scalars alone is one row,
    and a field the block lacks is written empty.  Blocks are written in
    turn, each in bounded slices of rows, so a generator of blocks streams
    the file.
    """
    own = isinstance(path_or_buf, (str, os.PathLike))
    fh = open(path_or_buf, "w", newline="") if own else path_or_buf
    try:
        fh.write(f"#schema={CSV_SCHEMA}\n")
        _write_block(fh, fieldnames, {f: f for f in fieldnames})
        for block in blocks:
            _write_block(fh, fieldnames, block)
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
