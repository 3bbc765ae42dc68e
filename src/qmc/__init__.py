"""qmc: an explicit-state model checker for quantum circuits.

Circuits and their noisy variants are modelled as super-operator-valued
transition systems; assertions are temporal formulas over subspace-valued
propositions, checked by reduction to classical CTL over a configuration
graph.
"""

__version__ = "0.1.0"
