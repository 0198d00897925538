"""Robust rate-splitting precoding for the MU-MIMO downlink under imperfect CSIT.

The top level exports the names of the README quick start; everything else
lives in the submodules: channels, rates, solver, baselines, evaluate, cli.
"""

__version__ = "0.1.0"

from .channels import sample_estimation_channel
from .rates import instantaneous_rates
from .solver import SolverConfig, run

__all__ = ["SolverConfig", "instantaneous_rates", "run", "sample_estimation_channel"]
