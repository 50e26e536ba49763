"""Exact-rational tools for flexibility of DP 3-colorings of multigraphs.

Every name is imported from the module that defines it, for example
`from flexdp.flexibility import epsilon_star`; importing a submodule loads
only what that submodule uses.
"""

__version__ = "0.1.0"
