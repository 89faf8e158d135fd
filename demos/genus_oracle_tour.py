"""The rotation-system genus oracle: exhaustive genus spectra, the six
torus embeddings of K5, the symmetric K7 embedding, and a randomized
embedding search for graphs whose rotation space is too big to sweep."""

from toroidal import (
    Graph,
    builtin,
    count_torus_embeddings,
    genus_distribution,
    hill_climb_genus,
    k7_torus_rotation,
    min_genus_bruteforce,
    rotation_space_size,
    trace_faces,
)
from toroidal.errors import GenusBudgetExceeded

k5 = Graph.complete(5)
print(f"K5 rotation systems: {rotation_space_size(k5)}")
print(f"K5 genus spectrum over all of them: {genus_distribution(k5)}")
print(f"K5 orientable genus: {min_genus_bruteforce(k5)}")
print(f"K5 torus embeddings up to symmetry and reflection: "
      f"{count_torus_embeddings(k5)}")

print(f"\nK3,3 genus: {min_genus_bruteforce(Graph.complete_bipartite(3, 3))} "
      f"(space of only {rotation_space_size(Graph.complete_bipartite(3, 3))})")

print("\nK7 has a vertex-transitive torus embedding: every vertex lists its")
print("neighbors by the same cyclic difference pattern.")
rot = k7_torus_rotation()
emb = trace_faces(Graph.complete(7), rot)
diffs = tuple((w - 0) % 7 for w in rot[0])
print(f"  pattern at every vertex v: v + {diffs} (mod 7)")
print(f"  faces: {len(emb.faces)}, all triangles: "
      f"{all(len(f) == 3 for f in emb.faces)}, genus {emb.euler_genus}")

m = builtin("M")
print(f"\nM-graph rotation space: {rotation_space_size(m)} systems")
try:
    min_genus_bruteforce(m)
except GenusBudgetExceeded as exc:
    print(f"  exact search refused: {exc}")
emb = hill_climb_genus(m, target=1, seed=0)
print(f"  randomized search found a genus-{emb.euler_genus} embedding with "
      f"{len(emb.faces)} faces (one-sided evidence, validated by face tracing)")
