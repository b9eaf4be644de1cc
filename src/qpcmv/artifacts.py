"""Artifact file formats, written in one place.

The CLI and the config pipeline write the same tables, so every CSV and
JSON artifact goes through this module.  A CSV artifact is an optional
``# ...`` comment line, a header row and the data rows, each float
written as its ``repr`` so that it reads back bit for bit; a JSON artifact
has sorted keys, an indent of 2 and a trailing newline, so equal documents
are equal bytes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .dynamics import scaled_deviations


def write_json(path, obj) -> None:
    Path(path).write_bytes(
        (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()
    )


def write_csv(path, comment: Optional[str], header, rows: Iterable) -> None:
    """``# comment`` (if any), the header row, then ``rows``."""
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and non-empty rows of a CSV artifact, comment lines dropped."""
    with open(path, newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader, [])
        return header, [row for row in reader if row]


def write_frequency_csv(path, seed, freq, scan) -> None:
    """Convergent denominators with their scores q * dist(q a, Z)."""
    write_csv(
        path, f"seed={seed}", ["q", "p", "q_dist"],
        ([q, p, repr(float(s))]
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
              ([n, repr(k / d)] for n, k in zip(ns, devs)))


def write_verblunsky_csv(path, seq, seed: Optional[int] = None) -> None:
    """Coefficients alpha(n) and rho(n) over the sequence's window.

    The value array is read once; rho is sqrt((1 - |a|)(1 + |a|)), the
    formula of ``VerblunskySequence.rho``, on the same Python complex.
    """
    def row(n, a):
        m = abs(a)
        return [n, repr(a.real), repr(a.imag),
                repr(math.sqrt((1.0 - m) * (1.0 + m)))]

    write_csv(
        path, None if seed is None else f"seed={seed}",
        ["n", "re_alpha", "im_alpha", "rho"],
        map(row, range(seq.n_min, seq.n_max + 1), seq.values.tolist()),
    )


def write_eigenvalues_csv(path, seed, dec) -> None:
    """Eigenvalue angles with their residuals ||E v - lambda v||."""
    write_csv(
        path, f"seed={seed}", ["angle", "residual"],
        ([repr(a), repr(r)] for a, r in
         zip(np.angle(dec.eigenvalues).tolist(), dec.residuals.tolist())),
    )


def write_profiles_csv(path, seed, profiles) -> None:
    """Shell masses of several eigenvectors, one row per (vector, shell)."""
    write_csv(
        path, f"seed={seed}",
        ["eigenvector", "shell", "mass", "participation_ratio"],
        ([p.index, s, repr(m), repr(p.participation_ratio)]
         for p in profiles for s, m in enumerate(p.shell_masses)),
    )


def write_profile_csv(path, seed, profile) -> None:
    """Shell masses of one eigenvector, named in the comment."""
    write_csv(
        path, f"seed={seed} eigenvector={profile.index}", ["shell", "mass"],
        ([s, repr(m)] for s, m in enumerate(profile.shell_masses)),
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
