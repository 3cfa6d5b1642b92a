"""Marginal-consistency and Markov-condition toolkit for 2D lattices.

Verifies local consistency and the eight-per-cluster Markov conditions on
3x3-cluster marginals, rebuilds global states through Petz right-merge snakes,
and evaluates the closed-form maximum-entropy value, with independent oracles
for everything.  Every name is imported from the module that defines it; the
package re-exports none.
"""

# Every module but ``cli`` loads with the package, so code that wraps module functions once ``import snakeweaver``
# returns (perfbench/tracer.py) finds them all; ``python -m snakeweaver.cli`` would warn if ``cli`` were loaded here.
from . import ci_calculus, lattice, marginal_store, merge, operator_core, oracles, reconstruct, snakes

__version__ = "0.1.0"
