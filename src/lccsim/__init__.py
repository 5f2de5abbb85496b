"""Exact simulator for remote quantum processing by linear-combination
circuits: LCC postselection circuits, KAK/Cartan decompositions, the
teleportation-based client-server protocol with decoy-state privacy,
and process-tomography verification.
"""

__version__ = "0.1.0"
