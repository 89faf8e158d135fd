"""Regenerate the full topological obstruction list from the four
minor-order seeds by closing under vertex splits.

A split divides one vertex's neighbors between two new adjacent vertices
(both keeping degree 3 or more).  Every split of a non-toroidal graph
stays non-toroidal, and a failed deletion-minimality check survives
splitting too, so the closure only ever needs to split verified
obstructions; the run below confirms the closure stops at eleven graphs.
"""

import time

from toroidal import builtin, canonical_form, enumerate_splits, to_graph6

seeds = [builtin(n) for n in ("G1", "G2", "G3", "G4")]
names = {canonical_form(builtin(f"G{i}")): f"G{i}" for i in range(1, 12)}

started = time.time()
closure = enumerate_splits(seeds)
print(f"\nclosure finished in {time.time() - started:.1f}s with {len(closure)} graphs:")
for g in closure:
    name = names.get(canonical_form(g), "NEW?!")
    print(f"  {name:4s} n={g.n:2d} m={g.m:2d} degrees={g.degree_sequence()} {to_graph6(g)}")

assert len(closure) == 11 and all(canonical_form(g) in names for g in closure)
print("\nexactly the catalog: G1..G4 plus the seven split-derived obstructions")
