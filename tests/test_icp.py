"""Tests for descriptors, the delivery reduction table, and serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macc_lab import (
    IcpInstance,
    IcpUser,
    MaccInstance,
    ParameterError,
    StructuredIcpDesc,
    UnionIcpDesc,
    as_icp,
    encode,
    greedy_coloring,
    icp_to_json,
    interval_contains,
    mod1,
    pair_columns,
    realize_single,
    realize_union_split,
    reduce_macc,
    verify_scheme,
)


# Reference builders: users and labels as frozensets and dicts, one IcpUser
# per node, turned into arrays by the generic IcpInstance path.


def reference_single(desc: StructuredIcpDesc) -> IcpInstance:
    k = desc.k
    users = []
    for u in range(1, k + 1):
        known = frozenset(mod1(u + desc.a1 + r, k) for r in range(1, desc.z + 1))
        users.append(IcpUser(want=frozenset({u}), known=known))
    return IcpInstance(n_messages=k, users=tuple(users))


def reference_union_split(desc: UnionIcpDesc, split: int) -> IcpInstance:
    k = desc.k
    known_sets = []
    for u in range(1, k + 1):
        known_sets.append(frozenset(
            ((b - 1) * 2 + t - 1) * split + j
            for t, shift in ((1, desc.a1), (2, desc.a2))
            for b in (mod1(u + shift + r, k) for r in range(1, desc.z + 1))
            for j in range(1, split + 1)
        ))
    users = []
    labels = {}
    for u in range(1, k + 1):
        for p in range(1, 2 * split + 1):
            t = 1 if p % 2 == 1 else 2
            j = (p + 1) // 2
            msg = ((u - 1) * 2 + (t - 1)) * split + j
            labels[msg] = f"x[{u},{t}]" if split == 1 else f"x[{u},{t}]#{j}"
            users.append(IcpUser(want=frozenset({msg}), known=known_sets[u - 1]))
    return IcpInstance(n_messages=2 * k * split, users=tuple(users), labels=labels)


def reference_as_icp(table) -> IcpInstance:
    if table.n_cols == 0:
        return IcpInstance(n_messages=0, users=())
    known_by_row = [
        frozenset(
            m for m, (_, start) in enumerate(table.messages, start=1)
            if interval_contains(start, table.coverage, p, table.n_rows)
        )
        for p in range(1, table.n_rows + 1)
    ]
    users = [
        IcpUser(want=frozenset({table.entry(p, q)}), known=known_by_row[p - 1])
        for p in range(1, table.n_rows + 1)
        for q in range(1, table.n_cols + 1)
    ]
    labels = {m: table.message_label(m) for m in range(1, table.n_messages + 1)}
    return IcpInstance(n_messages=table.n_messages, users=tuple(users), labels=labels)


def single_descs():
    return st.builds(
        StructuredIcpDesc,
        a1=st.integers(0, 6),
        a2=st.integers(0, 6),
        z=st.integers(1, 4),
    )


@st.composite
def union_descs(draw):
    # canonical orientation: a2 <= a1
    a1 = draw(st.integers(0, 6))
    a2 = draw(st.integers(0, a1))
    z = draw(st.integers(1, 4))
    return UnionIcpDesc(a1, a2, z)


@st.composite
def generic_instances(draw):
    """Multi-message wants; known sets that are empty, distinct or shared."""
    n = draw(st.integers(1, 8))
    used: list[frozenset[int]] = []
    users = []
    for _ in range(draw(st.integers(1, 6))):
        want = frozenset(draw(st.sets(st.integers(1, n), min_size=1, max_size=3)))
        shared = [s for s in used if not s & want]
        if shared and draw(st.booleans()):
            known = draw(st.sampled_from(shared))
        else:
            rest = sorted(set(range(1, n + 1)) - want)
            known = frozenset(draw(st.sets(st.sampled_from(rest)))) if rest else frozenset()
            used.append(known)
        users.append(IcpUser(want=want, known=known))
    return IcpInstance(n_messages=n, users=tuple(users))


def array_instances():
    return st.one_of(
        generic_instances(),
        single_descs().map(realize_single),
        st.tuples(union_descs(), st.integers(1, 3)).map(lambda d: realize_union_split(*d)),
    )


@st.composite
def corners(draw):
    k = draw(st.integers(2, 12))
    l = draw(st.integers(1, k))
    i = draw(st.integers(1, -(-k // l)))
    return MaccInstance(n_files=k, n_caches=k, access_degree=l, memory_index=i)


@st.composite
def tables(draw):
    """Reduction tables at random corners and demands, often repeated."""
    inst = draw(corners())
    k = inst.n_caches
    demands = draw(st.lists(st.integers(1, draw(st.integers(1, k))), min_size=k, max_size=k))
    return reduce_macc(inst, demands)


@st.composite
def built_and_reference(draw):
    """One instance from an array builder and the same from its reference."""
    kind = draw(st.sampled_from(["single", "union", "table"]))
    if kind == "single":
        desc = draw(single_descs())
        return realize_single(desc), reference_single(desc)
    if kind == "union":
        desc, split = draw(union_descs()), draw(st.integers(1, 4))
        return realize_union_split(desc, split), reference_union_split(desc, split)
    table = draw(tables())
    return as_icp(table), reference_as_icp(table)


class TestDescriptors:
    def test_user_count(self):
        assert StructuredIcpDesc(2, 1, 3).k == 7
        assert UnionIcpDesc(3, 3, 2).k == 9

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            StructuredIcpDesc(-1, 0, 1)
        with pytest.raises(ParameterError):
            StructuredIcpDesc(0, 0, 0)
        with pytest.raises(ParameterError):
            UnionIcpDesc(1, 2, 3)

    @given(union_descs())
    def test_halves_swap_offsets(self, desc):
        first, second = desc.halves()
        assert (first.a1, first.a2) == (desc.a1, desc.a2)
        assert (second.a1, second.a2) == (desc.a2, desc.a1)
        assert first.z == second.z == desc.z
        assert first.k == second.k == desc.k


class TestRealizeSingle:
    @given(single_descs())
    def test_shape_and_wants(self, desc):
        icp = realize_single(desc)
        assert icp.n_messages == desc.k
        assert len(icp.users) == desc.k
        for u, user in enumerate(icp.users, start=1):
            assert user.want == {u}

    @given(single_descs())
    def test_known_window(self, desc):
        # user u skips a1 messages past itself, then knows z in a row
        icp = realize_single(desc)
        k = desc.k
        for u, user in enumerate(icp.users, start=1):
            expected = {mod1(u + desc.a1 + r, k) for r in range(1, desc.z + 1)}
            assert user.known == expected
            assert len(user.known) == desc.z

    def test_clique_descriptor_knows_everyone_else(self):
        icp = realize_single(StructuredIcpDesc(0, 0, 3))
        for u, user in enumerate(icp.users, start=1):
            assert user.known == set(range(1, 5)) - {u}


class TestRealizeUnion:
    @given(union_descs())
    def test_shape(self, desc):
        icp = realize_union_split(desc, 1)
        k = desc.k
        assert icp.n_messages == 2 * k
        assert len(icp.users) == 2 * k
        assert icp.n_nodes == 2 * k

    @given(union_descs())
    def test_row_known_is_union_of_both_copies(self, desc):
        icp = realize_union_split(desc, 1)
        k = desc.k
        for u in range(1, k + 1):
            expected = set()
            for t, shift in ((1, desc.a1), (2, desc.a2)):
                for r in range(1, desc.z + 1):
                    b = mod1(u + shift + r, k)
                    expected.add((b - 1) * 2 + t)
            node_t1 = icp.users[(u - 1) * 2]
            node_t2 = icp.users[(u - 1) * 2 + 1]
            assert node_t1.want == {(u - 1) * 2 + 1}
            assert node_t2.want == {(u - 1) * 2 + 2}
            assert node_t1.known == node_t2.known == expected

    @given(union_descs(), st.integers(1, 3))
    def test_split_refines_messages(self, desc, split):
        whole = realize_union_split(desc, 1)
        fine = realize_union_split(desc, split)
        k = desc.k
        assert fine.n_messages == 2 * k * split
        assert fine.n_nodes == 2 * k * split
        # part j of coarse message m occupies id (m-1)*split + j, and a
        # node knows part j exactly when its coarse row knows m
        for u in range(1, k + 1):
            coarse = whole.users[(u - 1) * 2].known
            expected = {
                (m - 1) * split + j for m in coarse for j in range(1, split + 1)
            }
            for p in range(1, 2 * split + 1):
                assert fine.users[(u - 1) * 2 * split + p - 1].known == expected

    def test_labels(self):
        desc = UnionIcpDesc(1, 0, 2)
        assert realize_union_split(desc, 1).label(1) == "x[1,1]"
        assert realize_union_split(desc, 1).label(2) == "x[1,2]"
        fine = realize_union_split(desc, 2)
        assert fine.label(1) == "x[1,1]#1"
        assert fine.label(4) == "x[1,2]#2"

    def test_rejects_bad_split(self):
        with pytest.raises(ParameterError):
            realize_union_split(UnionIcpDesc(1, 0, 2), 0)


class TestNodeArrays:
    @given(array_instances())
    def test_arrays_follow_users(self, icp):
        nodes = [(u, m) for u, user in enumerate(icp.users) for m in sorted(user.want)]
        assert icp.n_nodes == len(nodes)
        assert icp.node_user.tolist() == [u for u, _ in nodes]
        assert icp.node_msg.tolist() == [m - 1 for _, m in nodes]
        assert len(icp.known_rows) == len({user.known for user in icp.users})
        for v, (u, _) in enumerate(nodes):
            indicator = [m in icp.users[u].known for m in range(1, icp.n_messages + 1)]
            assert icp.known_rows[icp.node_row[v]].tolist() == indicator

    @given(array_instances())
    def test_visible_is_known_or_same_message(self, icp):
        msg = icp.node_msg.tolist()
        for v in range(icp.n_nodes):
            known = icp.users[icp.node_user[v]].known
            expected = [m + 1 in known or m == msg[v] for m in msg]
            assert icp.visible(v).tolist() == expected

    def test_arrays_are_built_once_per_instance(self):
        # the arrays belong to the instance: however many other instances are
        # colored, encoded and verified in between, they are not rebuilt
        icp = realize_union_split(UnionIcpDesc(2, 1, 2), 2)
        assert all(verify_scheme(encode(icp, greedy_coloring(icp)), icp))
        rows = icp.known_rows
        for a1 in range(17):
            other = realize_union_split(UnionIcpDesc(a1, 0, 1), 1)
            assert all(verify_scheme(encode(other, greedy_coloring(other)), other))
        assert all(verify_scheme(encode(icp, greedy_coloring(icp)), icp))
        assert icp.known_rows is rows


class TestArrayBuilders:
    @given(built_and_reference())
    @settings(max_examples=150)
    def test_match_the_generic_path(self, pair):
        built, ref = pair
        generic = IcpInstance(ref.n_messages, users=ref.users, labels=ref.labels)
        assert built == generic and hash(built) == hash(generic)
        for name in ("node_user", "node_msg", "known_rows", "node_row"):
            a, b = getattr(built, name), getattr(generic, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert built.users == generic.users
        assert built.n_users == len(generic.users)
        # the users of one known row share one set object
        rows = built.node_row[np.flatnonzero(np.diff(built.node_user, prepend=-1))]
        assert len({(r, id(u.known)) for r, u in zip(rows.tolist(), built.users)}) == len(
            built.known_rows
        )
        assert built.labels == generic.labels
        assert icp_to_json(built) == icp_to_json(generic)

    def test_arrays_are_read_only(self):
        icp = realize_union_split(UnionIcpDesc(2, 1, 2), 2)
        with pytest.raises(ValueError):
            icp.known_rows[0, 0] = True

    def test_equality_ignores_labels(self):
        icp = realize_union_split(UnionIcpDesc(1, 0, 2), 1)
        bare = IcpInstance(icp.n_messages, users=icp.users)
        assert bare == icp and hash(bare) == hash(icp)
        assert bare.labels is None and icp.labels
        assert icp != realize_union_split(UnionIcpDesc(1, 0, 2), 2)


class TestInstanceValidation:
    def test_want_must_be_nonempty(self):
        with pytest.raises(ParameterError):
            IcpUser(want=frozenset(), known=frozenset({1}))

    def test_want_known_disjoint(self):
        with pytest.raises(ParameterError):
            IcpUser(want=frozenset({1}), known=frozenset({1, 2}))

    def test_messages_in_range(self):
        user = IcpUser(want=frozenset({3}), known=frozenset())
        with pytest.raises(ParameterError):
            IcpInstance(n_messages=2, users=(user,))

    @pytest.mark.parametrize("bad", ["1.5", "true", '"a"'])
    def test_message_ids_must_be_integers(self, bad):
        user = IcpUser(want=frozenset({json.loads(bad)}), known=frozenset({2}))
        with pytest.raises(ParameterError, match="message id"):
            IcpInstance(n_messages=3, users=(user,))

    def test_numpy_integer_ids_are_accepted(self):
        user = IcpUser(want=frozenset({np.int64(1)}), known=frozenset({np.int32(2)}))
        icp = IcpInstance(n_messages=2, users=(user,))
        assert icp.node_msg.tolist() == [0]
        assert icp.known_rows.tolist() == [[False, True]]

    def test_label_fallback(self):
        icp = IcpInstance(
            n_messages=1, users=(IcpUser(frozenset({1}), frozenset()),)
        )
        assert icp.label(1) == "x1"


class TestReduceMacc:
    @given(corners())
    @settings(max_examples=60)
    def test_table_shape(self, inst):
        table = reduce_macc(inst)
        k = inst.n_caches
        cov = inst.coverage
        assert table.n_rows == k
        assert table.n_cols == max(k - cov, 0)
        assert table.coverage == cov
        assert len(table.cells) == k
        assert all(len(row) == table.n_cols for row in table.cells)

    @given(corners())
    @settings(max_examples=60)
    def test_distinct_demands_give_distinct_messages(self, inst):
        table = reduce_macc(inst)
        assert table.n_messages == table.n_rows * table.n_cols

    @given(corners())
    @settings(max_examples=60)
    def test_column_descriptors(self, inst):
        table = reduce_macc(inst)
        n = table.n_cols
        for q, desc in enumerate(table.column_descs, start=1):
            assert (desc.a1, desc.a2, desc.z) == (n - q, q - 1, table.coverage)
            assert desc.k == table.n_rows

    @given(corners())
    @settings(max_examples=40)
    def test_wanted_cell_never_covers_own_row(self, inst):
        table = reduce_macc(inst)
        k = table.n_rows
        for p in range(1, k + 1):
            known = table.row_known(p)
            for q in range(1, table.n_cols + 1):
                m = table.entry(p, q)
                _, start = table.messages[m - 1]
                assert start == mod1(p + q, k)
                assert m not in known
                assert not interval_contains(start, table.coverage, p, k)

    def test_equal_demands_deduplicate(self):
        inst = MaccInstance(n_files=3, n_caches=6, access_degree=2, memory_index=1)
        table = reduce_macc(inst, demands=(1,) * 6)
        # one message per interval start, shared across all six rows
        assert table.n_cols == 4
        assert table.n_messages == 6
        for p in range(1, 7):
            for q in range(1, 5):
                f, start = table.messages[table.entry(p, q) - 1]
                assert f == 1
                assert start == mod1(p + q, 6)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_dedup_matches_row_major_dict(self, data):
        # random demands with repeats, every L and i: each (file, interval
        # start) pair keeps the id of its first cell in row-major order
        k = data.draw(st.integers(1, 20))
        l = data.draw(st.integers(1, k))
        i = data.draw(st.integers(1, -(-k // l)))
        files = data.draw(st.integers(1, k))
        demands = data.draw(st.lists(st.integers(1, files), min_size=k, max_size=k))
        table = reduce_macc(MaccInstance(files, k, l, i), demands)
        ids: dict[tuple[int, int], int] = {}
        cells = [[ids.setdefault((demands[p - 1], mod1(p + q, k)), len(ids) + 1)
                  for q in range(1, table.n_cols + 1)] for p in range(1, k + 1)]
        assert table.cells.dtype == np.int32 and table.cells.shape == (k, table.n_cols)
        assert table.cells.tolist() == cells
        assert table.messages.tolist() == [list(key) for key in ids]
        assert not table.cells.flags.writeable and not table.messages.flags.writeable

    def test_tables_compare_and_hash_by_content(self):
        inst = MaccInstance(n_files=3, n_caches=6, access_degree=2, memory_index=1)
        demands = (1, 2, 1, 3, 3, 1)
        a, b = reduce_macc(inst, demands), reduce_macc(inst, demands)
        assert a.cells is not b.cells
        assert a == b and hash(a) == hash(b)
        assert a != reduce_macc(inst, (1, 2, 1, 3, 3, 2))
        assert a != reduce_macc(inst)

    def test_single_column_clique(self):
        inst = MaccInstance(n_files=4, n_caches=4, access_degree=1, memory_index=3)
        table = reduce_macc(inst)
        assert (table.n_rows, table.n_cols) == (4, 1)
        assert table.column_descs == (StructuredIcpDesc(0, 0, 3),)
        icp = as_icp(table)
        assert icp.n_nodes == 4
        for u, user in enumerate(icp.users, start=1):
            assert user.known == set(range(1, 5)) - {u}

    def test_message_labels_name_file_and_interval(self):
        inst = MaccInstance(n_files=8, n_caches=8, access_degree=2, memory_index=3)
        table = reduce_macc(inst)
        assert table.message_label(table.entry(1, 1)) == "F[d1,[2:7]]"
        assert table.message_label(table.entry(8, 2)) == "F[d8,[2:7]]"

    def test_full_coverage_corner_is_empty(self):
        inst = MaccInstance(n_files=6, n_caches=6, access_degree=2, memory_index=3)
        table = reduce_macc(inst)
        assert table.n_cols == 0
        icp = as_icp(table)
        assert icp.n_messages == 0
        assert icp.users == ()

    def test_rejects_zero_memory_index(self):
        inst = MaccInstance(n_files=4, n_caches=4, access_degree=1, memory_index=0)
        with pytest.raises(ParameterError):
            reduce_macc(inst)


class TestAsIcp:
    @given(corners())
    @settings(max_examples=40)
    def test_nodes_mirror_cells(self, inst):
        table = reduce_macc(inst)
        icp = as_icp(table)
        assert icp.n_nodes == table.n_rows * table.n_cols
        idx = 0
        for p in range(1, table.n_rows + 1):
            known = table.row_known(p)
            for q in range(1, table.n_cols + 1):
                user = icp.users[idx]
                assert user.want == {table.entry(p, q)}
                assert user.known == known
                idx += 1

    def test_labels_carry_over(self):
        inst = MaccInstance(n_files=8, n_caches=8, access_degree=2, memory_index=3)
        table = reduce_macc(inst)
        icp = as_icp(table)
        assert icp.label(table.entry(1, 1)) == "F[d1,[2:7]]"


class TestPairing:
    @given(corners())
    @settings(max_examples=60)
    def test_pairing_covers_columns(self, inst):
        table = reduce_macc(inst)
        components = pair_columns(table)
        n = table.n_cols
        assert len(components) == (n + 1) // 2
        assert all(len(columns) == 2 for columns, _ in components[: n // 2])
        if n % 2 == 1:
            c = (n - 1) // 2
            columns, union = components[-1]
            assert columns == (c + 1,)
            assert union == UnionIcpDesc(c, c, table.coverage)
            # the middle union's first half is the column itself
            assert union.halves()[0] == table.column_descs[c]

    @given(corners())
    @settings(max_examples=60)
    def test_union_halves_match_paired_columns(self, inst):
        table = reduce_macc(inst)
        descs = table.column_descs
        for columns, union in pair_columns(table):
            q, partner = columns[0], columns[-1]
            assert partner == table.n_cols - q + 1
            first, second = union.halves()
            assert first == descs[q - 1]
            assert second == descs[partner - 1]

    def test_single_column_pairs_to_middle_only(self):
        inst = MaccInstance(n_files=4, n_caches=4, access_degree=1, memory_index=3)
        table = reduce_macc(inst)
        assert pair_columns(table) == (((1,), UnionIcpDesc(0, 0, 3)),)
        assert pair_columns(table)[0][1].halves()[0] == StructuredIcpDesc(0, 0, 3)


class TestJson:
    def test_output_is_stable_and_sorted(self):
        inst = MaccInstance(n_files=5, n_caches=5, access_degree=1, memory_index=2)
        icp = as_icp(reduce_macc(inst))
        text = icp_to_json(icp)
        assert text == icp_to_json(icp)
        data = json.loads(text)
        assert set(data) == {"n_messages", "users", "labels"}
        for u in data["users"]:
            assert u["known"] == sorted(u["known"])
