"""Linearization-free SLAM with LTV Kalman filters and virtual measurements.

Nonlinear sensor readings (bearings, bearing rates, time-to-contact,
Doppler, pinhole projections) are rewritten as exact linear constraints
on landmark positions, so a linear time-varying Kalman filter estimates
the map with no linearization error.  The package covers per-landmark
local filters, a full-state global filter with heading side-estimation,
the decoupled pair-filter network with consensus feedback, and
multi-robot cooperative map alignment through null-space inputs.
"""

from .core import (AngularVelocityMatrix, ContractionDiagnostics, FilterState,
                   RobotInputs, fit_contraction_rate, heading_forward,
                   rotation2d, skew, wrap_angle)
from .kalman import DivergenceError, FilterConfig, ode_step, step
from .noisecal import NoiseSpec, PortedNoise
from .slam_local import LocalLandmarkFilter, LocalMap, SensorBundle
from .vmeas import VirtualMeasurement

__all__ = [
    "AngularVelocityMatrix", "ContractionDiagnostics", "DivergenceError",
    "FilterConfig", "FilterState", "LocalLandmarkFilter", "LocalMap",
    "NoiseSpec", "PortedNoise", "RobotInputs", "SensorBundle",
    "VirtualMeasurement", "fit_contraction_rate", "heading_forward",
    "ode_step", "rotation2d", "skew", "step", "wrap_angle",
]

__version__ = "0.1.0"
