"""Exact Ramsey dynamics of Ising spin ensembles with soft-core couplings.

The package computes the per-spin transverse coherence of frozen spin
ensembles whose pairwise couplings come from Rydberg dressing (soft
core) or bare van der Waals tails, for both plain Ramsey and
spin-echo protocols, with single-particle loss and pure dephasing.
Closed-form products, disorder-averaged gas integrals, lattice
correlation maps, a brute-force master-equation oracle, and Monte Carlo
sampling cross-check one another; the ``experiments`` module and the
``rydramsey`` CLI package the standard sweeps.
"""

from .errors import (
    BiasWarning,
    CapacityError,
    ConfigError,
    CrossingNotFoundError,
    NumericalError,
    ParameterError,
    RydramseyError,
    SingularityError,
    UnsupportedRegimeError,
    ValidityWarning,
)
from .potential import (
    DRESSING_FRACTION_WARN,
    DressingParams,
    InteractionPotential,
    PotentialKind,
    blockade_number,
    derive_potential,
    evaluate_V,
)
from .ising_core import (
    AtomConfiguration,
    RamseyProtocol,
    coherence_decay,
    connected_sxsx,
    f_kernel,
    sigma_plus_couplings,
)
from .gas_average import (
    DimensionlessPoint,
    GasSpec,
    MCResult,
    contrast_gas,
    contrast_gas_finite_n,
    exponent_integral,
    fit_hardcore_amplitude,
    high_density_contrast,
    low_density_amplitude,
    low_density_contrast,
    monte_carlo_gas,
    tau_half,
)
from .lattice import (
    LatticeSpec,
    correlation_map,
    d4_deviation,
    lattice_contrast,
    lattice_positions,
)
from .config import RunConfig, config_from_dict, load_config, parse_quantity
from .experiments import (
    parse_grid,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_scan,
    run_validate,
)

__version__ = "0.1.0"

__all__ = [
    "AtomConfiguration",
    "BiasWarning",
    "CapacityError",
    "ConfigError",
    "CrossingNotFoundError",
    "DRESSING_FRACTION_WARN",
    "DimensionlessPoint",
    "DressingParams",
    "GasSpec",
    "InteractionPotential",
    "LatticeSpec",
    "MCResult",
    "NumericalError",
    "ParameterError",
    "PotentialKind",
    "RamseyProtocol",
    "RunConfig",
    "RydramseyError",
    "SingularityError",
    "UnsupportedRegimeError",
    "ValidityWarning",
    "blockade_number",
    "coherence_decay",
    "config_from_dict",
    "connected_sxsx",
    "contrast_gas",
    "contrast_gas_finite_n",
    "correlation_map",
    "d4_deviation",
    "derive_potential",
    "evaluate_V",
    "exponent_integral",
    "f_kernel",
    "fit_hardcore_amplitude",
    "high_density_contrast",
    "lattice_contrast",
    "lattice_positions",
    "load_config",
    "low_density_amplitude",
    "low_density_contrast",
    "monte_carlo_gas",
    "parse_grid",
    "parse_quantity",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_scan",
    "run_validate",
    "sigma_plus_couplings",
    "tau_half",
]
