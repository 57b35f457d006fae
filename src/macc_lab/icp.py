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
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from .errors import ParameterError, as_int
from .macc import MaccInstance, demand_vector


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


def by_content(cls):
    """Make a frozen ``eq=False`` dataclass compare and hash by its compared
    fields, each array field by its bytes, so that equal contents hash alike."""
    names = [f.name for f in fields(cls) if f.compare]

    def key(self) -> tuple:
        values = (getattr(self, name) for name in names)
        return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in values)

    cls.__eq__ = lambda self, other: key(self) == key(other) if isinstance(other, cls) else NotImplemented
    cls.__hash__ = lambda self: hash(key(self))
    return cls


@by_content
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


# a table message's name: its file, then its user interval's first and last user
MESSAGE_LABEL = "F[d%d,[%d:%d]]"


@by_content
@dataclass(frozen=True, eq=False)
class IcpTable:
    """The delivery problem as a K x (K-iL) grid of wanted subfiles.

    Cell ``(p, q)`` holds the subfile of file ``d_p`` whose user interval is
    the ``iL`` consecutive users starting at ``mod1(p+q, K)``. Cells with the
    same (file, interval) pair share one message id; ``entry(p, q)`` returns
    it. Column ``q`` on its own is a ``(K-iL-q, q-1)_{iL}`` instance.
    ``cells`` is a read-only ``(K, K-iL)`` int32 array of those ids, and
    ``messages`` a read-only ``(n_messages, 2)`` int64 array whose row
    ``m - 1`` is message ``m``'s ``(file, interval start)``; a table compares
    and hashes by their contents.
    """

    instance: MaccInstance
    demands: tuple[int, ...]
    n_rows: int
    n_cols: int
    coverage: int
    cells: np.ndarray
    messages: np.ndarray

    def entry(self, row: int, col: int) -> int:
        return int(self.cells[row - 1, col - 1])

    @property
    def n_messages(self) -> int:
        return len(self.messages)

    @property
    def column_descs(self) -> tuple[StructuredIcpDesc, ...]:
        n = self.n_cols
        return tuple(
            StructuredIcpDesc(n - q, q - 1, self.coverage) for q in range(1, n + 1)
        )

    @cached_property
    def label_fields(self) -> np.ndarray:
        """Row ``m - 1``: message ``m``'s file, interval start and interval
        end, the numbers :meth:`message_label` writes into ``MESSAGE_LABEL``."""
        ends = (self.messages[:, 1:] + self.coverage - 2) % self.n_rows + 1
        return np.hstack((self.messages, ends))

    def message_label(self, msg: int) -> str:
        return MESSAGE_LABEL % tuple(self.label_fields[msg - 1].tolist())

    def covers(self, rows) -> np.ndarray:
        """``[r, m]``: does message ``m + 1``'s interval cover ``rows[r]``?"""
        return (np.asarray(rows)[:, None] - self.messages[:, 1]) % self.n_rows < self.coverage

    def row_known(self, row: int) -> frozenset[int]:
        """Messages readable by user ``row``: those whose interval covers it."""
        return frozenset((np.flatnonzero(self.covers([row])[0]) + 1).tolist())


def reduce_macc(instance: MaccInstance, demands=None) -> IcpTable:
    """Reduce a delivery problem at corner ``i`` to an index coding table.

    Each user needs ``K - iL`` subfiles of its file, one per column; users in
    the interval of a subfile hold it as side information. With ``iL = K``
    the table is empty (rate 0). Equal demands produce repeated (file,
    interval) pairs which deduplicate onto a single message id, numbered in
    row-major order of first appearance. The zero-memory corner ``i = 0``
    raises :class:`ParameterError` before the demands are read.
    """
    k, i = instance.n_caches, instance.memory_index
    if i < 1:
        raise ParameterError(
            "zero-memory corner has no cached side information; "
            "delivery there is a plain broadcast"
        )
    demands = demand_vector(instance, demands)
    cov = instance.coverage
    n_cols = max(k - cov, 0)
    # each cell as file * K + 0-based interval start, row-major
    starts = (np.arange(k)[:, None] + np.arange(1, n_cols + 1)) % k
    keys = (np.array(demands, dtype=np.int64)[:, None] * k + starts).ravel()
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = first.argsort()  # distinct keys by first appearance; argsort again ranks them
    cells = (order.argsort()[inverse] + 1).astype(np.int32).reshape(k, n_cols)
    messages = np.concatenate(np.divmod(distinct[order, None], k), axis=1) + (0, 1)
    for a in (cells, messages):
        a.setflags(write=False)
    return IcpTable(instance=instance, demands=demands, n_rows=k, n_cols=n_cols,
                    coverage=cov, cells=cells, messages=messages)


def as_icp(table: IcpTable) -> IcpInstance:
    """One node per table cell; known side = messages covering the node's row.

    A message wanted in row ``p`` never covers ``p`` itself, so the want and
    known sets stay disjoint even with repeated demands.
    """
    if table.n_cols == 0:
        return IcpInstance(n_messages=0, users=())
    k, n = table.n_rows, table.n_cols
    # row_known of every row; each start has a message and iL < K, so the
    # rows differ and each is its own known row
    nodes = np.arange(k * n)
    arrays = (nodes, table.cells.ravel() - 1, table.covers(np.arange(1, k + 1)), nodes // n)
    return _store(object.__new__(IcpInstance), table.n_messages, arrays, _labels=lambda: {
        m: table.message_label(m) for m in range(1, table.n_messages + 1)})


def pair_columns(table: IcpTable) -> tuple[tuple[tuple[int, ...], UnionIcpDesc], ...]:
    """The table's components in plan order, each as ``(columns, union)``:
    column ``q`` paired with column ``K-iL-q+1``, its
    :attr:`IcpTable.column_descs` entry read as their union.

    Odd ``K-iL`` ends with the middle column ``q = (K-iL+1)/2`` alone: its
    columns are ``(q,)`` and its union the symmetric ``(c, c)_{iL}`` one with
    ``c = (K-iL-1)/2``, whose first half is the column itself (for
    ``K-iL = 1`` the everyone-knows-everyone column ``(0, 0)_{iL}``).
    """
    n = table.n_cols
    return tuple(
        ((q,) if 2 * q == n + 1 else (q, n - q + 1), UnionIcpDesc(d.a1, d.a2, d.z))
        for q, d in enumerate(table.column_descs[: (n + 1) // 2], start=1)
    )


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
