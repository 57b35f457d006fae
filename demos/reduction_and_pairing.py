"""Reduce one demand round to an index coding table and pair its columns.

The K x (K-iL) table has one row per user and one wanted subfile per cell;
users inside a subfile's coverage interval hold it as side information.
Column q alone is a cyclic single-unicast instance (K-iL-q, q-1)_{iL}, and
mirrored columns melt into two-sided union instances that all share the same
interference budget a1 + a2 + 2 = K - iL + 1.
"""

from macc_lab import (
    MaccInstance,
    as_icp,
    pair_columns,
    reduce_macc,
)


def show_table(k: int, l: int, i: int) -> None:
    inst = MaccInstance(n_files=k, n_caches=k, access_degree=l, memory_index=i)
    table = reduce_macc(inst)
    print(f"(K={k}, L={l}, i={i}): {table.n_rows} x {table.n_cols} table, "
          f"coverage {table.coverage}")

    for q, desc in enumerate(table.column_descs, start=1):
        print(f"  column {q}: ({desc.a1},{desc.a2})_{desc.z}")

    for columns, desc, middle in pair_columns(table):
        if middle is None:
            qa, qb = columns
            print(f"  columns {qa}+{qb} -> union ({desc.a1},{desc.a2})_{desc.z}, "
                  f"{desc.k} rows wanting 2 messages each")
        else:
            print(f"  middle column -> symmetric ({middle.a1},{middle.a2})_{middle.z}")
    print()


def main() -> None:
    show_table(8, 2, 3)
    show_table(9, 2, 3)

    # the single-column corner: everyone already knows everyone else's cell
    inst = MaccInstance(n_files=4, n_caches=4, access_degree=1, memory_index=3)
    table = reduce_macc(inst)
    print("single-column example (K=4, L=1, i=3):")
    for p in range(1, 5):
        m = table.entry(p, 1)
        known = sorted(table.message_label(x) for x in table.row_known(p))
        print(f"  user {p} wants {table.message_label(m)}, knows {known}")
    icp = as_icp(table)
    print(f"  as one instance: {icp.n_nodes} nodes, every pair mutually visible,")
    print("  so a single summed transmission settles the whole column.")


if __name__ == "__main__":
    main()
