"""Numerical toolkit for weakly interacting Langevin particles with memory.

The package covers, at desk scale: the linear-algebra kit for degenerate
diffusions, closed-form spectra and Gaussian mean-field laws in the quadratic
regime, stochastic integrators for the interacting particle systems,
stationary states and their bifurcations, free-energy / energy-entropy
diagnostics, and the white-noise limit that collapses the memory onto an
effective friction.
"""

__version__ = "0.1.0"
