"""Near-field diffraction simulator for binary gratings on a spatial
light modulator: closed-form propagation, an exact per-window Fresnel oracle,
photon-counting statistics, and pattern analysis."""

from .analysis import fringe_width_fraction, revival_distance, visibility
from .config import RunConfig, read_config_file
from .errors import ConfigError, DomainError, ResolutionCapError, TalbotSimError
from .grating import (SlmProfile, binary_transmission, fourier_coefficient,
                      render_slm_mask, write_pgm)
from .model import (Carpet, DetectionSpec, GratingSpec, Pattern, SourceSpec,
                    effective_distance, magnification, spectral_grid,
                    talbot_length)
from .montecarlo import simulate_scan
from .oracle import fresnel_field, fresnel_intensity
from .propagation import carpet, intensity, polychromatic_rate, scan

__version__ = "0.1.0"

__all__ = [
    "Carpet", "ConfigError", "DetectionSpec", "DomainError", "GratingSpec",
    "Pattern", "ResolutionCapError", "RunConfig", "SlmProfile",
    "SourceSpec", "TalbotSimError", "binary_transmission", "carpet",
    "effective_distance", "fourier_coefficient", "fresnel_field",
    "fresnel_intensity", "fringe_width_fraction", "intensity",
    "magnification", "polychromatic_rate", "read_config_file",
    "render_slm_mask", "revival_distance", "scan", "simulate_scan",
    "spectral_grid", "talbot_length", "visibility", "write_pgm",
]
