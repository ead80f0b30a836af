"""Solvers and diagnostics for traffic flow whose drivers react to an
exponentially weighted average of the density ahead, including the local
LWR limit and the relaxation-system reformulation."""

from .core import (Bump, CheckResult, DensityField, DomainError, Grid,
                   KernelScale, ModelValidationReport, MonotoneRamp,
                   PositivityError, Riemann, ShapeError, Sine, SolverConfig,
                   VelocityModel, make_initial, validate_model)
from .kernel import AveragedField, average, edge_to_center, ode_residual
from .trajectory import RunStats, Snapshot, Trajectory
from .nonlocal_fv import (PicardResult, march_nonlocal, picard_oracle,
                          solve_nonlocal)
from .local_lwr import (FluxEntropyModel, entropy_pair, godunov_flux,
                        godunov_state, solve_local)
from .relaxation import (BVConditionReport, RelaxationFrame,
                         RelaxationTrajectory, SubcharacteristicReport,
                         UZFields, check_bv_conditions,
                         check_subcharacteristic, equilibrium_speed,
                         equilibrium_z, from_uz, lambda_source,
                         physical_slice, solve_relaxation, speeds, to_uz,
                         transformed_tv)
from .diagnostics import (BumpTestFunction, entropy_residual,
                          hardy_littlewood_gap, kernel_deviation,
                          l1_distance, shifted_product_check, stability_gap,
                          symmetric_rearrangement, total_variation)

__version__ = "0.1.0"
