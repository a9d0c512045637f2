"""Weak saturation of uniform hypergraphs.

Import each name from the module that defines it: hypergraph (r-graphs and
their text format), percolation (H-bootstrap closure and its certificates),
templates, designs (covering designs), constructions (the gadgets and their
bound checks), solver (exact wsat(n, H) and upper bounds) and cli (`wsat`).
"""

__version__ = "0.1.0"
