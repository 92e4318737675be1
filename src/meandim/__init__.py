"""Width-reducing simplicial maps, epsilon-embedding certificates, orbit
capacity for subshifts, and a finite-horizon factor-map construction, all in
exact rational arithmetic."""

__version__ = "0.1.0"
