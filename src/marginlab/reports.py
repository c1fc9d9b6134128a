"""Metrics serialization: the fixed-schema learning-curve CSV and its JSON
mirror.  Files are written atomically (temp file + rename)."""

from __future__ import annotations

import json
import os

CSV_HEADER = ("epoch,train_clean,train_robust,val_clean,val_robust,"
              "test_clean,test_robust,loss,seconds")
FIELDS = CSV_HEADER.split(",")


def atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _row_values(row, timing: bool):
    vals = []
    for name in FIELDS:
        v = getattr(row, name)
        if name == "seconds" and not timing:
            v = 0.0  # keep repeated runs byte-identical
        vals.append(v)
    return vals


def emit_report(metrics, fmt: str, path: str, timing: bool = False) -> None:
    """Write per-epoch metrics; floats carry 6 decimals in both formats."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        for row in metrics:
            vals = _row_values(row, timing)
            lines.append(",".join(str(int(vals[0])) if i == 0 else f"{v:.6f}"
                                  for i, v in enumerate(vals)))
        atomic_write(path, "\n".join(lines) + "\n")
    elif fmt == "json":
        docs = []
        for row in metrics:
            vals = _row_values(row, timing)
            docs.append({name: (int(v) if name == "epoch" else round(float(v), 6))
                         for name, v in zip(FIELDS, vals)})
        atomic_write(path, json.dumps(docs, indent=2) + "\n")
    else:
        raise ValueError("format must be 'csv' or 'json'")


def emit_table(header, rows, path: str) -> None:
    """Generic CSV table (evaluation grids, benchmark timings)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.6f}" if isinstance(v, float) else str(v)
                              for v in row))
    atomic_write(path, "\n".join(lines) + "\n")
