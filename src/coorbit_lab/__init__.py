"""Numerical laboratory for coherent-state transforms and coorbit norms on
nilpotent Lie groups.

Closed-form Gaussian algebra feeds five concrete group representations; on
top of that sit weighted norm computations, orbit scans, and frame
diagnostics, each backed by an independent grid oracle.

Importing the package loads none of its modules; import what you need from
them (coorbit_lab.coorbit, coorbit_lab.frames, ...).
"""

__version__ = "0.1.0"
