"""
Gluing complexes and computing integer homology
===============================================

Pushouts glue two complexes along a shared piece, tensor products
build higher tori from circles, and the chain complex with its Smith
normal form turns all of that into Betti numbers and torsion.
"""

from precubical import (
    PcsMap,
    boundary_cube,
    chain_complex,
    circle,
    disjoint_union,
    euler_characteristic,
    homology,
    pushout,
    standard_cube,
    tensor,
    torus,
)

# Glue both endpoints of an edge onto a single vertex: the pushout of
# two maps out of the two-point complex makes a directed circle.
edge = standard_cube(1)
point = standard_cube(0)
two_points = disjoint_union(point, point)
into_edge = PcsMap(two_points, edge, {(0, "K:"): "0", (0, "M:"): "1"})
into_point = PcsMap(two_points, point, {(0, "K:"): "", (0, "M:"): ""})
loop = pushout(into_edge, into_point)
print(f"glued circle counts: {loop.cell_counts()}")

# The boundary operator squares to zero, which is exactly the cubical
# relations written additively.  Boundary matrices are lists of integer
# rows, so the composite is multiplied out by hand.
for K, name in [(standard_cube(3), "cube 3"), (torus(2), "torus 2")]:
    cc = chain_complex(K)
    ok = all(
        sum(x * y for x, y in zip(row, col)) == 0
        for d in range(1, cc.top_dim + 1)
        for row in cc.matrix(d)
        for col in zip(*cc.matrix(d + 1))
    )
    print(f"boundary squared vanishes on {name}: {ok}")

# Hollow cubes are combinatorial spheres.
for n in range(1, 5):
    result = homology(boundary_cube(n + 1))
    print(f"sphere S^{n}: betti {result.betti}")

# Solid cubes are contractible, whatever the dimension.
print(f"\ncube 5: betti {homology(standard_cube(5)).betti}")

# The d-torus is a d-fold tensor of circles and its Betti numbers are
# the binomial coefficients.
for d in range(4):
    print(f"torus {d}: betti {homology(torus(d)).betti}")

# The cylinder (circle tensor edge) has the homology of the circle.
cylinder = tensor(circle(), standard_cube(1))
print(f"\ncylinder: betti {homology(cylinder).betti}")

# Euler characteristic comes straight from the cell counts and agrees
# with the alternating sum of Betti numbers.
for K, name in [(standard_cube(4), "cube 4"), (boundary_cube(3), "hollow cube")]:
    chi = euler_characteristic(K)
    betti_sum = sum((-1) ** i * b for i, b in enumerate(homology(K).betti))
    print(f"{name}: euler {chi}, alternating betti sum {betti_sum}")
