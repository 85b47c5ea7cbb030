"""Closed-loop benchmark of riaho's public API: seeded workloads, output
oracles, and a traced run that attributes time to riaho's modules."""
