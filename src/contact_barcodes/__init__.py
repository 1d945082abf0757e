"""Exact persistence barcodes and contact invariants.

Core data: Scalar (exact rational with symbolic infinities), Spectrum,
Bar/Barcode, SampledModule over GF(2).  Operations: interval
decomposition, canonical module generation, bottleneck and brute-force
interleaving distances, ellipsoid barcodes with Conley-Zehnder grading,
and the derived invariants (spectral values, covering bounds on
translated points, boundary depth).

The names below are imported from their submodules on first use
(PEP 562): `import contact_barcodes` loads no submodule, and a program
loads only the submodules of the names it uses.
"""

from importlib import import_module

# public name -> the submodule that defines it; "errors" is the submodule itself
_SOURCE = {
    **dict.fromkeys(("Scalar", "as_scalar", "rational", "ZERO", "POS_INF",
                     "NEG_INF"), "scalar"),
    "Gf2Matrix": "gf2",
    **dict.fromkeys(("Spectrum", "Bar", "Barcode"), "barcode"),
    **dict.fromkeys(("SampledModule", "validate_module", "decompose",
                     "module_from_barcode"), "persistence"),
    **dict.fromkeys(("Matching", "bottleneck_distance"), "distances"),
    **dict.fromkeys(("InterleavingCertificate", "interleaving_distance_bruteforce",
                     "find_interleaving", "verify_interleaving"), "interleaving"),
    **dict.fromkeys(("EllipsoidParams", "CzIndex", "ellipsoid_spectrum",
                     "cz_index", "ellipsoid_barcode", "gaps_longer_than"),
                    "ellipsoid"),
    **dict.fromkeys(("spectral_invariant", "translate_barcode", "boundary_depth",
                     "covering_number", "bar_endpoint_set",
                     "translated_point_lower_bound"), "invariants"),
    "errors": "errors",
}

__all__ = list(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name: str):
    source = _SOURCE.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{source}", __name__)
    value = module if name == source else getattr(module, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
