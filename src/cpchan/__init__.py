"""Multiuser mmWave uplink channel estimation via tensor CP factorization.

Layered pilot measurements form a third-order tensor whose CP factors carry
the compressed per-path array responses; decomposing it decouples the joint
multiuser problem into per-user sparse angle-gain recovery.  A direct
compressed-sensing estimator and a Monte-Carlo benchmark harness are included
for comparison experiments.
"""

__version__ = "0.1.0"
