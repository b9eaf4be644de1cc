"""Artifact file formats, written in one place.

The CLI and the config pipeline write the same tables, so every CSV and
JSON artifact goes through this module.  A CSV artifact is a ``# ...``
comment line, a header row and the data rows, each float written as its
``repr`` so that it reads back bit for bit and each row ended in the csv
module's "\r\n"; a JSON artifact has sorted keys, an indent of 2 and a
trailing newline, so equal documents are equal bytes; a NaN or infinity,
which JSON cannot hold, is a ValueError, not written.
The two JSON inputs, the run config and the tube-construction spec, are
read by one typed reader, ``read_fields``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, fields
from pathlib import Path
from typing import (Iterable, NewType, Union, get_args, get_origin,
                    get_type_hints)

from .dynamics import scaled_deviations
from .errors import QpcmvError

# an exact rational given in JSON as a string ("3/10", "0.3") or a number,
# kept as the text that ``as_fraction`` reads
Rational = NewType("Rational", str)


def write_json(path, obj) -> None:
    Path(path).write_bytes((json.dumps(
        obj, sort_keys=True, indent=2, allow_nan=False) + "\n").encode())


def write_csv(path, comment: str, header, rows: Iterable) -> None:
    """``# comment``, the header row, then ``rows``.

    Every field is a string: an int's ``str`` or a float's ``repr``, which
    hold no comma, quote or line break.  The csv module would quote none of
    them, so joining each row by commas and ending it in "\r\n" gives its
    bytes.  Rows are streamed, not gathered into one string, so a long
    table adds nothing to the peak memory.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"# {comment}\n" + ",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in rows)


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and non-empty rows of a CSV artifact, comment lines dropped."""
    with open(path, newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader, [])
        return header, [row for row in reader if row]


def _decode(hint, v):
    """JSON value ``v`` as a value of the field type ``hint``: an int, a
    float from any number, a str, a Rational from a string or a number, a
    complex from a number or an [re, im] pair, a tuple from a list of its
    items, an Optional[X] as an X; TypeError when ``v`` does not fit.  The
    ``NaN`` and ``Infinity`` that ``json`` reads are not numbers here."""
    number = (isinstance(v, float) and math.isfinite(v)
              or isinstance(v, int) and not isinstance(v, bool))
    if get_origin(hint) is Union:  # Optional[X]: given, it is an X
        return _decode(get_args(hint)[0], v)
    if get_origin(hint) is tuple:
        items = get_args(hint)
        if isinstance(v, list) and items[-1] is Ellipsis:
            items = items[:1] * len(v)
        if isinstance(v, list) and len(v) == len(items):
            return tuple(_decode(h, x) for h, x in zip(items, v))
    elif hint is complex:
        if number:
            return complex(v)
        return complex(*_decode(tuple[float, float], v))
    elif hint is float and number:
        return float(v)
    elif hint is int and isinstance(v, int) and not isinstance(v, bool):
        return v
    elif hint is Rational and (number or isinstance(v, str)):
        return str(v)
    elif hint is str and isinstance(v, str):
        return v
    raise TypeError(v)


def read_fields(cls, d, what: str):
    """The dataclass ``cls`` from the JSON object ``d``, each field read
    from its key by ``_decode``.  Not an object, a missing field without
    default, an unknown key, a value of the wrong JSON type (described by
    the field's ``form`` metadata, if any) or an empty list raise
    QpcmvError naming ``what``."""
    if not isinstance(d, dict):
        raise QpcmvError(f"{what} must be a JSON object")
    missing = [f.name for f in fields(cls) if f.name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise QpcmvError(f"{what} lacks {', '.join(missing)}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise QpcmvError(f"unknown {what} field(s): {', '.join(unknown)}")
    hints = get_type_hints(cls)
    kw = {}
    for f in fields(cls):
        if f.name in d:
            if d[f.name] == []:
                raise QpcmvError(f"{what} field {f.name!r} must not be empty")
            try:
                kw[f.name] = _decode(hints[f.name], d[f.name])
            except TypeError:
                raise QpcmvError(
                    f"{what} field {f.name!r} must be "
                    f"{f.metadata.get('form', f.type)}, "
                    f"got {json.dumps(d[f.name])}"
                ) from None
    return cls(**kw)


def write_frequency_csv(path, seed, freq, scan) -> None:
    """Convergent denominators with their scores q * dist(q a, Z)."""
    write_csv(
        path, f"seed={seed}", ["q", "p", "q_dist"],
        ([str(q), str(p), repr(float(s))]
         for (p, q), (_, s) in zip(freq.convergents, scan.per_convergent)),
    )


def write_orbit_csv(path, comment: str, system, omega, cert) -> None:
    """dist(T^n w, T^(n+q) w) for n = 0..window of a repetition certificate.

    Each distance is the exact integer k = D * dist divided by D, which is
    the correctly rounded float of the exact rational distance.
    """
    ns = range(cert.window + 1)
    d, devs = scaled_deviations(system, omega, cert.q, ns)
    write_csv(path, comment, ["n", "dist"],
              ([str(n), repr(k / d)] for n, k in zip(ns, devs)))


def write_verblunsky_csv(path, seq, seed: int) -> None:
    """Coefficients alpha(n) and ``VerblunskySequence.rho`` over the
    sequence's window."""
    write_csv(
        path, f"seed={seed}", ["n", "re_alpha", "im_alpha", "rho"],
        ([str(n), repr(a.real), repr(a.imag), repr(r)] for n, a, r in zip(
            range(seq.n_min, seq.n_max + 1), seq.values.tolist(),
            seq.rho(seq.n_min, seq.n_max).tolist())),
    )


def write_eigenvalues_csv(path, seed, dec) -> None:
    """Eigenvalue angles with their residuals ||E v - lambda v||."""
    import numpy as np

    write_csv(
        path, f"seed={seed}", ["angle", "residual"],
        ([repr(a), repr(r)] for a, r in
         zip(np.angle(dec.eigenvalues).tolist(), dec.residuals.tolist())),
    )


def write_profiles_csv(path, seed, profiles) -> None:
    """Shell masses of several eigenvectors, one row per (vector, shell);
    each vector's participation ratio is formatted once for all its rows."""
    def rows():
        for p in profiles:
            i, pr = str(p.index), repr(p.participation_ratio)
            for s, m in enumerate(p.shell_masses):
                yield i, str(s), repr(m), pr

    write_csv(
        path, f"seed={seed}",
        ["eigenvector", "shell", "mass", "participation_ratio"], rows(),
    )


def write_profile_csv(path, seed, profile) -> None:
    """Shell masses of one eigenvector, named in the comment."""
    write_csv(
        path, f"seed={seed} eigenvector={profile.index}", ["shell", "mass"],
        ([str(s), repr(m)] for s, m in enumerate(profile.shell_masses)),
    )


def gordon_levels(cert) -> list[dict]:
    """The levels of a Gordon certificate as JSON objects."""
    keys = ("k", "q", "r", "defect", "threshold", "passed", "underflowed")
    return [{key: getattr(level, key) for key in keys} for level in cert.levels]


def evidence_summary(table) -> dict:
    """The verdict fields of an evidence table."""
    keys = ("q", "min_c", "argmin_angle", "verdict", "nonfinite_rows",
            "max_log10_norm")
    return {key: getattr(table, key) for key in keys}


def write_evidence_csv(path, seed, table) -> None:
    write_csv(
        path, f"seed={seed} q={table.q} source={table.source}",
        ["angle", "c", "norm_forward", "norm_double", "norm_backward"],
        ([repr(r.angle), repr(r.c), repr(r.norm_forward),
          repr(r.norm_double), repr(r.norm_backward)] for r in table.rows),
    )
