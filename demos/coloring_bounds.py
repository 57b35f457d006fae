"""Color a union instance three ways and compare against the exact oracle.

A proper coloring of the interference structure turns into transmissions via
MDS precoding: the broadcast needs as many rows as the largest number of
distinct colors any user sees. The residue coloring works with any divisor
palette, the split coloring trades subpacketization for fewer rows per part,
and on small instances an exhaustive search certifies how close both get to
the true local chromatic number.
"""

from macc_lab import (
    UnionIcpDesc,
    divisor_coloring,
    encode,
    exhaustive_chi_l,
    fractional_coloring,
    greedy_coloring,
    is_proper,
    local_count,
    realize_union_split,
    union_bounds,
    verify_scheme,
)


def main() -> None:
    desc = UnionIcpDesc(2, 2, 9)
    k = desc.k
    bounds = union_bounds(desc)
    print(f"union descriptor (a1={desc.a1}, a2={desc.a2}, z={desc.z}), K = {k}")
    print(f"  lower bound          : {bounds.lower}")
    print(f"  one-shot scalar bound: {bounds.scalar}")
    print(f"  divisor-palette bound: {bounds.divisor}")
    print(f"  fractional bound     : {bounds.fractional}")
    print()

    icp = realize_union_split(desc, 1)
    for palette in (bounds.divisor, k):
        coloring = divisor_coloring(desc, palette)
        lc = local_count(icp, coloring)
        scheme = encode(icp, coloring)
        ok = all(verify_scheme(scheme, icp))
        print(f"residue coloring, {palette} colors: proper={is_proper(icp, coloring)}, "
              f"local count {lc}, {scheme.n_transmissions} transmissions, "
              f"all decode={ok}")

    coloring, m = fractional_coloring(desc)
    split_icp = realize_union_split(desc, m)
    scheme = encode(split_icp, coloring)
    print(f"split coloring, m={m} parts per message: local count "
          f"{local_count(split_icp, coloring)}, rate "
          f"{scheme.n_transmissions}/{m} = {scheme.n_transmissions / m} per message")
    print()

    small = UnionIcpDesc(2, 1, 2)
    small_icp = realize_union_split(small, 1)
    chi, witness = exhaustive_chi_l(small_icp)
    first_fit = greedy_coloring(small_icp)
    print(f"small case (a1={small.a1}, a2={small.a2}, z={small.z}), "
          f"{small_icp.n_nodes} nodes:")
    print(f"  exact local chromatic number: {chi}")
    print(f"  residue coloring local count: "
          f"{local_count(small_icp, divisor_coloring(small, small.k))}")
    print(f"  first-fit local count       : {local_count(small_icp, first_fit)}")
    print(f"  witness coloring            : {witness.colors}")


if __name__ == "__main__":
    main()
