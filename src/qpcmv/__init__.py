"""CMV operators with quasiperiodic Verblunsky coefficients.

Library layout:

- ``frequency``: continued fractions, approximation scores, constructed
  well-approximable frequencies
- ``dynamics``: torus rotations and the skew-shift, repetition certificates
- ``sampling``: sampling functions, orbit-tube constructions, coefficient
  windows
- ``transfer``: transfer matrices, Lipschitz budgets, Gordon certification,
  three-block lower bounds
- ``cmv``: finite unitary truncations, spectra, eigenvector profiles
- ``pipeline`` / ``cli``: configuration-driven experiment runs
- ``artifacts``: the CSV and JSON artifact formats both of them write
"""

import importlib

__version__ = "0.1.0"

# Every exported name, keyed to the submodule that defines it.  A name is
# imported on first access (PEP 562), so ``import qpcmv`` loads no
# submodule, and a command loads numpy only if it uses a name that needs it.
_SUBMODULE = {
    name: module
    for module, names in {
        "arith": "DEFAULT_PRECISION_BITS as_fraction dist_to_int",
        "cmv": "CMVOperator SpectralDecomposition assemble eigenvector_profile "
               "spectrum",
        "dynamics": "RepetitionCertificate Rotation SkewShift TorusPoint "
                    "block_displacement find_even_repetition iterate "
                    "skew_repetition_times",
        "errors": "ConstructionError DegenerateOrbitError DomainError "
                  "EigensolverError InvariantViolation PrecisionError "
                  "QpcmvError WindowError",
        "frequency": "Frequency badly_approximable_score continued_fraction "
                     "golden_mean liouville_frequency",
        "sampling": "ConstantFunction HarmonicFunction PerturbedFunction "
                    "TentBump TubeFunction VerblunskySequence ball_radius "
                    "distance_to_tubes min_enclosing_circle "
                    "periodic_defect_maxima tube_function "
                    "tube_tolerance_verdict verblunsky_window",
        "transfer": "EvidenceTable GordonCertificate certify_gordon "
                    "coefficient_tolerance min_max_over_unit_vectors "
                    "no_point_spectrum_evidence spectral_norm_2x2 "
                    "szego_matrix three_step_lipschitz "
                    "validate_three_step_lipschitz",
    }.items()
    for name in names.split()
}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    """An exported name, or one of the submodules that define them, read
    from its submodule at each access: nothing is cached here, so a name
    rebound in its submodule is seen as rebound."""
    if name in _SUBMODULE:
        module = importlib.import_module(f".{_SUBMODULE[name]}", __name__)
        return getattr(module, name)
    if name in _SUBMODULE.values():
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
