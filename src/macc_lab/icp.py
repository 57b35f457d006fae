"""Index coding instances: structured descriptors, realizations, and the
reduction from multi-access caching delivery to a table of single-unicast
index coding columns.

Conventions
-----------
Messages and users are 1-based. A *node* is one (user, wanted message) pair,
user-major with each user's messages ascending; every user wants exactly one
message in the instances built here, so node ``v`` and user ``v`` coincide.
An instance *is* its 0-based node arrays, read-only: ``node_user``,
``node_msg``, ``node_row`` and ``known_rows`` (the distinct known sets as
boolean rows over messages, in order of first use). The structured builders
compute them directly; ``users`` and ``labels`` are derived on first read.
Structured instances lay nodes out row-major over ``(row k, column p)``
grids, so the node for row ``k``, column ``p`` of a ``2m``-column grid has
index ``(k-1)*2m + p``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import jsontext
from .errors import ParameterError, as_int
from .macc import (
    DemandProfile,
    MaccInstance,
    as_demand_profile,
    interval_contains,
    mod1,
)


@dataclass(frozen=True)
class StructuredIcpDesc:
    """Cyclic single-unicast descriptor ``(a1, a2)_z``.

    ``K = a1 + a2 + z + 1`` users on a cycle; user ``k`` wants ``x_k`` and
    knows the ``z`` consecutive messages ``x_{mod1(k+a1+r, K)}, r in [z]``.
    """

    a1: int
    a2: int
    z: int

    def __post_init__(self) -> None:
        if self.a1 < 0 or self.a2 < 0:
            raise ParameterError(f"offsets must be >= 0, got ({self.a1}, {self.a2})")
        if self.z < 1:
            raise ParameterError(f"side-information run must be >= 1, got {self.z}")

    @property
    def k(self) -> int:
        return self.a1 + self.a2 + self.z + 1


@dataclass(frozen=True)
class UnionIcpDesc:
    """Union descriptor: superpose ``(a1,a2)_z`` and ``(a2,a1)_z`` over
    disjoint message sets; user ``k`` wants one message from each copy.

    Convention ``a2 <= a1`` (the pairing that produces these always has it).
    """

    a1: int
    a2: int
    z: int

    def __post_init__(self) -> None:
        self.halves()  # each half checks the offsets and the run
        if self.a2 > self.a1:
            raise ParameterError(f"expected a2 <= a1, got ({self.a1}, {self.a2})")

    @property
    def k(self) -> int:
        return self.a1 + self.a2 + self.z + 1

    def halves(self) -> tuple[StructuredIcpDesc, StructuredIcpDesc]:
        return (
            StructuredIcpDesc(self.a1, self.a2, self.z),
            StructuredIcpDesc(self.a2, self.a1, self.z),
        )


@dataclass(frozen=True)
class IcpUser:
    """One user's wanted and known message sets. They never intersect."""

    want: frozenset[int]
    known: frozenset[int]

    def __post_init__(self) -> None:
        if not self.want:
            raise ParameterError("want set must be non-empty")
        if self.want & self.known:
            raise ParameterError("want and known sets must be disjoint")


@dataclass(frozen=True, init=False, eq=False)
class IcpInstance:
    """A (single-)unicast index coding instance, held as its node arrays.

    Built from ``users`` and optional ``labels`` (message id -> name); equal
    iff ``n_messages`` and the users are, whatever the labels.
    """

    n_messages: int
    node_user: np.ndarray
    node_msg: np.ndarray
    known_rows: np.ndarray
    node_row: np.ndarray

    def __init__(self, n_messages: int, users=(), labels: dict | None = None) -> None:
        users = tuple(users)
        _store(self, n_messages, _user_arrays(n_messages, users), users=users, labels=labels)

    @cached_property
    def users(self) -> tuple[IcpUser, ...]:
        """One :class:`IcpUser` per user; the users of a row share its known set."""
        known = [frozenset((np.flatnonzero(row) + 1).tolist()) for row in self.known_rows]
        starts = np.flatnonzero(np.diff(self.node_user, prepend=-1)).tolist()
        msgs, rows = (self.node_msg + 1).tolist(), self.node_row[starts].tolist()
        return tuple(IcpUser(frozenset(msgs[a:b]), known[r])
                     for a, b, r in zip(starts, starts[1:] + [len(msgs)], rows))

    @cached_property
    def labels(self) -> dict | None:
        return self._labels()

    def _key(self) -> tuple:
        arrays = (self.node_user, self.node_msg, self.known_rows, self.node_row)
        return (self.n_messages, *(a.tobytes() for a in arrays))

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if isinstance(other, IcpInstance) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def n_users(self) -> int:
        return int(self.node_user[-1]) + 1 if self.n_nodes else 0

    @property
    def n_nodes(self) -> int:
        return len(self.node_msg)

    def visible(self, node: int) -> np.ndarray:
        """Per node ``v``: does 0-based ``node``'s user know ``v``'s message,
        or want the same one?"""
        msg = self.node_msg
        return self.known_rows[self.node_row[node], msg] | (msg == msg[node])

    def label(self, message: int) -> str:
        if self.labels and message in self.labels:
            return self.labels[message]
        return f"x{message}"


def _store(icp: IcpInstance, n_messages: int, arrays, **views) -> IcpInstance:
    """Give ``icp`` its node arrays (user, msg, known rows, row), read-only,
    after checking that no node's user knows the message it wants."""
    node_user, node_msg, known_rows, node_row = (
        np.asarray(a, t) for a, t in zip(arrays, (np.int32, np.int32, bool, np.int32)))
    if known_rows[node_row, node_msg].any():
        raise ParameterError("want and known sets must be disjoint")
    for a in (node_user, node_msg, known_rows, node_row):
        a.setflags(write=False)
    vars(icp).update(n_messages=n_messages, node_user=node_user, node_msg=node_msg,
                     known_rows=known_rows, node_row=node_row, **views)
    return icp


def _user_arrays(n_messages: int, users: tuple[IcpUser, ...]) -> tuple:
    """The node arrays of ``users``, after checking that every message id is
    an integer in ``[1, n_messages]``; each distinct set is read once."""
    sets = dict.fromkeys(s for u in users for s in (u.want, u.known))
    ids = np.array([as_int(m, "a message id") for s in sets for m in s], dtype=np.int64)
    if ids.size and (ids.min() < 1 or ids.max() > n_messages):
        m = ids.min() if ids.min() < 1 else ids.max()
        raise ParameterError(f"message {m} outside [1, {n_messages}]")
    row_of = {s: r for r, s in enumerate(dict.fromkeys(u.known for u in users))}
    known_rows = np.zeros((len(row_of), n_messages), dtype=bool)
    for s, r in row_of.items():
        known_rows[r, np.fromiter(s, np.intp, len(s)) - 1] = True
    node_user = np.repeat(np.arange(len(users)), [len(u.want) for u in users])
    node_msg = np.array([m - 1 for u in users for m in sorted(u.want)], dtype=np.int64)
    user_row = np.array([row_of[u.known] for u in users], dtype=np.intp)
    return node_user, node_msg, known_rows, user_row[node_user]


@lru_cache(maxsize=16)
def node_data(icp: IcpInstance) -> IcpInstance:
    """The instance itself, which carries the node arrays; kept with its cache
    because benchmark harnesses read ``node_data.cache_info()``. An equal
    instance passed before may come back in place of ``icp``."""
    return icp


def _window(k: int, shift: int, z: int) -> np.ndarray:
    """``[u, c]``: is 0-based ``c`` one of the ``z`` after ``u + shift`` on a
    cycle of ``k``?"""
    u = np.arange(k)
    return (u - u[:, None] - shift - 1) % k < z


def realize_single(desc: StructuredIcpDesc) -> IcpInstance:
    """Materialize ``(a1, a2)_z``: K messages, user k wants x_k."""
    nodes = np.arange(desc.k)
    known = _window(desc.k, desc.a1, desc.z)
    return _store(object.__new__(IcpInstance), desc.k, (nodes, nodes, known, nodes), labels=None)


def realize_union_split(desc: UnionIcpDesc, split: int) -> IcpInstance:
    """Union instance with every message cut into ``split`` equal parts.

    Grid layout: ``2*split`` columns; odd columns hold the parts of the
    ``(a1,a2)_z`` copy, even columns the ``(a2,a1)_z`` copy, and column
    ``p`` carries part ``ceil(p/2)``. Message id of part ``j`` of ``x_{k,t}``
    is ``((k-1)*2 + (t-1))*split + j``; node ``(k, p)`` has index
    ``(k-1)*2*split + p``.
    """
    if split < 1:
        raise ParameterError(f"split factor must be >= 1, got {split}")
    k = desc.k
    # row u knows every part of copy t of the z rows after u + (a1, a2)[t]
    rows = np.stack([_window(k, desc.a1, desc.z), _window(k, desc.a2, desc.z)], axis=2)
    known = np.repeat(rows.reshape(k, 2 * k), split, axis=1)
    p = np.arange(2 * split)  # 0-based column p wants part p // 2 of copy p % 2
    node_msg = ((np.arange(k)[:, None] * 2 + p % 2) * split + p // 2).ravel()
    nodes = np.arange(len(node_msg))
    arrays = (nodes, node_msg, known, nodes // (2 * split))
    return _store(object.__new__(IcpInstance), 2 * k * split, arrays, _labels=lambda: {
        ((u - 1) * 2 + t - 1) * split + j: f"x[{u},{t}]" + (f"#{j}" if split > 1 else "")
        for u in range(1, k + 1) for j in range(1, split + 1) for t in (1, 2)
    })


@dataclass(frozen=True)
class IcpTable:
    """The delivery problem as a K x (K-iL) grid of wanted subfiles.

    Cell ``(p, q)`` holds the subfile of file ``d_p`` whose user interval is
    the ``iL`` consecutive users starting at ``mod1(p+q, K)``. Cells with the
    same (file, interval) pair share one message id; ``entry(p, q)`` returns
    it. Column ``q`` on its own is a ``(K-iL-q, q-1)_{iL}`` instance.
    """

    instance: MaccInstance
    demands: DemandProfile
    n_rows: int
    n_cols: int
    coverage: int
    cells: tuple[tuple[int, ...], ...]
    messages: tuple[tuple[int, int], ...]  # message id -> (file, interval start)

    def entry(self, row: int, col: int) -> int:
        return self.cells[row - 1][col - 1]

    @property
    def n_messages(self) -> int:
        return len(self.messages)

    @property
    def column_descs(self) -> tuple[StructuredIcpDesc, ...]:
        n = self.n_cols
        return tuple(
            StructuredIcpDesc(n - q, q - 1, self.coverage) for q in range(1, n + 1)
        )

    def message_label(self, msg: int) -> str:
        f, start = self.messages[msg - 1]
        end = mod1(start + self.coverage - 1, self.n_rows)
        return f"F[d{f},[{start}:{end}]]"

    def row_known(self, row: int) -> frozenset[int]:
        """Messages readable by user ``row``: those whose interval covers it."""
        k = self.n_rows
        return frozenset(
            m
            for m, (_, start) in enumerate(self.messages, start=1)
            if interval_contains(start, self.coverage, row, k)
        )


def reduce_macc(instance: MaccInstance, demands=None) -> IcpTable:
    """Reduce a delivery problem at corner ``i`` to an index coding table.

    Each user needs ``K - iL`` subfiles of its file, one per column; users in
    the interval of a subfile hold it as side information. With ``iL = K``
    the table is empty (rate 0). Equal demands produce repeated (file,
    interval) pairs which deduplicate onto a single message id.
    """
    profile = as_demand_profile(instance, demands)
    k, l, i = instance.n_caches, instance.access_degree, instance.memory_index
    if i < 1:
        raise ParameterError("delivery table needs memory index >= 1")
    cov = i * l
    n_cols = max(k - cov, 0)
    # a (file, interval start) pair keeps the id of its first cell
    ids: dict[tuple[int, int], int] = {}
    cells = tuple(
        tuple(ids.setdefault((profile.demands[p - 1], mod1(p + q, k)), len(ids) + 1)
              for q in range(1, n_cols + 1))
        for p in range(1, k + 1)
    )
    return IcpTable(instance=instance, demands=profile, n_rows=k, n_cols=n_cols,
                    coverage=cov, cells=cells, messages=tuple(ids))


def as_icp(table: IcpTable) -> IcpInstance:
    """One node per table cell; known side = messages covering the node's row.

    A message wanted in row ``p`` never covers ``p`` itself, so the want and
    known sets stay disjoint even with repeated demands.
    """
    if table.n_cols == 0:
        return IcpInstance(n_messages=0, users=())
    k, n = table.n_rows, table.n_cols
    starts = np.array([start for _, start in table.messages])
    # row_known of every row; each start has a message and iL < K, so the
    # rows differ and each is its own known row
    covers = (np.arange(1, k + 1)[:, None] - starts) % k < table.coverage
    nodes = np.arange(k * n)
    arrays = (nodes, np.array(table.cells).ravel() - 1, covers, nodes // n)
    return _store(object.__new__(IcpInstance), table.n_messages, arrays, _labels=lambda: {
        m: table.message_label(m) for m in range(1, table.n_messages + 1)})


def pair_columns(
    table: IcpTable,
) -> tuple[tuple[UnionIcpDesc, ...], StructuredIcpDesc | None]:
    """Pair column ``q`` with column ``K-iL-q+1`` into union descriptors: the
    first half of :attr:`IcpTable.column_descs`, each read as a union.

    Even ``K-iL``: ``(K-iL)/2`` unions, no leftover. Odd: the middle column
    remains as a symmetric single descriptor ``(c, c)_{iL}`` with
    ``c = (K-iL-1)/2`` (for ``K-iL = 1`` that is the everyone-knows-everyone
    column ``(0, 0)_{iL}``).
    """
    descs = table.column_descs
    half = len(descs) // 2
    unions = tuple(UnionIcpDesc(d.a1, d.a2, d.z) for d in descs[:half])
    return unions, descs[half] if len(descs) % 2 else None


def paired_column_indices(table: IcpTable) -> tuple[tuple[int, int], ...]:
    """Column index pairs (q, K-iL-q+1) matching :func:`pair_columns` order."""
    n = table.n_cols
    return tuple((q, n - q + 1) for q in range(1, n // 2 + 1))


def icp_to_json(icp: IcpInstance) -> str:
    """Serialize an instance; stable field order, sorted id lists."""
    payload = {
        "n_messages": icp.n_messages,
        "users": [
            {"want": sorted(u.want), "known": sorted(u.known)} for u in icp.users
        ],
    }
    if icp.labels:
        payload["labels"] = {str(m): icp.labels[m] for m in sorted(icp.labels)}
    return json.dumps(payload, indent=2)


def icp_from_json(text: str) -> IcpInstance:
    data = json.loads(text)
    n_messages, users = jsontext.fields(data, "an instance", n_messages=int, users=list)
    users = (
        IcpUser(*(frozenset(as_int(m, "a message id") for m in ids)
                  for ids in jsontext.fields(u, "a user", want=list, known=list)))
        for u in users
    )
    labels = jsontext.fields(data, "an instance", labels=dict)[0] if "labels" in data else {}
    if not all(m.isdecimal() for m in labels):
        raise ParameterError(f"an instance's 'labels' must be keyed by message ids, got {list(labels)}")
    return IcpInstance(n_messages, users, {int(m): v for m, v in labels.items()} or None)
