"""Walk the side-component decomposition of G4 step by step: the TK5, its
ten components, the unique non-planar one, the M-subdivision built through
it, and the central component that dooms the embedding."""

from toroidal import (
    builtin,
    build_m_subdivision,
    decide_toroidal,
    decompose_by_corners,
    is_planar,
)

g4 = builtin("G4")
print(f"G4: {g4.n} vertices, {g4.m} edges, degree sequence {g4.degree_sequence()}")

verdict = decide_toroidal(g4)
w = verdict.tk5
print(f"\nTK5 found with corners {sorted(w.corners)}")
for (p, q), path in sorted(w.branch_paths.items()):
    if len(path) > 2:
        print(f"  branch path {p}-{q} runs through {list(path[1:-1])}")

dec = decompose_by_corners(g4, w)
print(f"\n{len(dec.components)} side components of the corner set:")
# the certificate reports each component's planarity, in the same order
for sc, r in zip(dec.components, verdict.components, strict=True):
    tag = []
    if not r.planar:
        tag.append("NON-PLANAR")
    elif not r.augmented_planar:
        # planar with a non-planar augmentation: its corner edge is absent
        tag.append("special")
    print(f"  corners {sc.corners}: {sc.subgraph.n} vertices, "
          f"{sc.subgraph.m} edges {' '.join(tag)}")

(f,) = [sc for sc in dec.components if not is_planar(sc.augmented)]
print(f"\nUnique non-planar side component sits on corners {f.corners};")
print("it is non-planar itself, so only an M-subdivision can still give an")
print("embedding.  Building one through those corners:")

tm = build_m_subdivision(g4, w, f)
print(f"  TM corners {sorted(tm.corners)}, central pair "
      f"({tm.corner_map[0]}, {tm.corner_map[1]})")

mdec = decompose_by_corners(g4, tm)
central = mdec.component(tm.corner_map[0], tm.corner_map[1])
print(f"\nThe TM has {len(mdec.components)} side components; the central one has "
      f"{central.subgraph.n} vertices and {central.subgraph.m} edges")
print(f"  central component planar: {is_planar(central.subgraph)}")
print(f"  central component augmented planar: {is_planar(central.augmented)}")
print("\nA K5-on-five-vertices augmentation cannot sit inside the cylinder that")
print("the M-graph's torus embeddings leave for it: G4 is not toroidal, and")
print("deleting or contracting any edge makes the central component planar")
print("again, which is exactly minor-order minimality.")
