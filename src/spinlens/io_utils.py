"""Plain-text output helpers shared by the scenario runner.

Conventions: UTF-8 CSV with a header row, every numeric column labeled
with its unit in brackets, floats at 17 significant digits so reruns can
be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


def format_value(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


_FLOATS = (float, np.float64)


def write_csv(path, header, rows) -> Path:
    """Write ``header`` and ``rows`` to ``path``, each cell as
    :func:`format_value` formats it; float and int cells, the common ones,
    are formatted in line."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(["%.17g" % x if type(x) in _FLOATS
                               else str(x) if type(x) is int
                               else format_value(x) for x in row]) + "\n")
    return path


def write_json(path, payload) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")
    return path


def _jsonable(x):
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, Path):
        return str(x)
    raise TypeError(f"not JSON-serializable: {type(x)}")


def canonical_hash(payload) -> str:
    """sha256 over a canonical JSON rendering, for config identity."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_jsonable)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def state_rows(state, table):
    """Snapshot rows (site label, position, Re, Im, probability)."""
    p = np.abs(state.amplitudes) ** 2
    for n in range(table.n_sites):
        lab = "/".join(str(v) for v in table.labels[n])
        pos = "/".join("%.17g" % v for v in table.positions[n])
        yield (lab, pos, state.amplitudes[n].real, state.amplitudes[n].imag, p[n])


STATE_HEADER = ["label", "position [a]", "re_amplitude [1]",
                "im_amplitude [1]", "probability [1]"]
