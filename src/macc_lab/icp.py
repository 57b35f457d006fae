"""Index coding instances: structured descriptors, realizations, and the
reduction from multi-access caching delivery to a table of single-unicast
index coding columns.

Conventions
-----------
Messages and users are 1-based. An :class:`IcpInstance` lists one user per
*node*: every user wants exactly one message in the instances built here, so
node ``v`` and user ``v`` coincide and ``nodes`` enumerates ``(user, message)``
pairs in user order. Structured instances lay nodes out row-major over
``(row k, column p)`` grids, so the node for row ``k``, column ``p`` of a
``2m``-column grid has index ``(k-1)*2m + p``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ParameterError
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
        if self.a1 < 0 or self.a2 < 0:
            raise ParameterError(f"offsets must be >= 0, got ({self.a1}, {self.a2})")
        if self.a2 > self.a1:
            raise ParameterError(f"expected a2 <= a1, got ({self.a1}, {self.a2})")
        if self.z < 1:
            raise ParameterError(f"side-information run must be >= 1, got {self.z}")

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


@dataclass(frozen=True)
class IcpInstance:
    """A (single-)unicast index coding instance.

    ``labels`` optionally maps message ids to human-readable names; it is
    excluded from equality and hashing.
    """

    n_messages: int
    users: tuple[IcpUser, ...]
    labels: dict | None = field(default=None, compare=False, hash=False)

    def __post_init__(self) -> None:
        # structured builders share known sets between users, so validating
        # each distinct set once covers everything
        for s in dict.fromkeys(s for u in self.users for s in (u.want, u.known)):
            for m in s:
                if not (1 <= m <= self.n_messages):
                    raise ParameterError(f"message {m} outside [1, {self.n_messages}]")

    @cached_property
    def nodes(self) -> tuple[tuple[int, int], ...]:
        """(user, message) pairs, user-major, messages ascending within a user."""
        users = enumerate(self.users, start=1)
        return tuple((u, m) for u, user in users for m in sorted(user.want))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def label(self, message: int) -> str:
        if self.labels and message in self.labels:
            return self.labels[message]
        return f"x{message}"


class _NodeData:
    """Numpy view of an instance used by the coloring/verification hot paths.

    Known sets are deduplicated into rows of a boolean matrix; structured
    instances have only K distinct rows even when the node count is K*2m.
    """

    __slots__ = (
        "n_nodes",
        "node_msg",
        "known_rows",
        "node_row",
    )

    def __init__(self, icp: IcpInstance):
        nodes = icp.nodes
        self.n_nodes = len(nodes)
        node_user = np.fromiter((u - 1 for u, _ in nodes), dtype=np.int32, count=len(nodes))
        self.node_msg = np.fromiter((m - 1 for _, m in nodes), dtype=np.int32, count=len(nodes))
        row_of: dict[frozenset[int], int] = {}
        user_row = np.fromiter(
            (row_of.setdefault(u.known, len(row_of)) for u in icp.users),
            dtype=np.int32,
            count=len(icp.users),
        )
        known = np.zeros((len(row_of), icp.n_messages), dtype=bool)
        for r, s in enumerate(row_of):
            known[r, np.fromiter((m - 1 for m in s), dtype=np.int64, count=len(s))] = True
        self.known_rows = known
        self.node_row = user_row[node_user]

    def knows(self, node: int, msg0: np.ndarray) -> np.ndarray:
        return self.known_rows[self.node_row[node], msg0]


@lru_cache(maxsize=16)
def node_data(icp: IcpInstance) -> _NodeData:
    return _NodeData(icp)


def realize_single(desc: StructuredIcpDesc) -> IcpInstance:
    """Materialize ``(a1, a2)_z``: K messages, user k wants x_k."""
    k = desc.k
    users = []
    for u in range(1, k + 1):
        known = frozenset(mod1(u + desc.a1 + r, k) for r in range(1, desc.z + 1))
        users.append(IcpUser(want=frozenset({u}), known=known))
    return IcpInstance(n_messages=k, users=tuple(users))


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
    shifts = (desc.a1, desc.a2)
    known_sets = []
    for u in range(1, k + 1):
        ids = []
        for t in (1, 2):
            for r in range(1, desc.z + 1):
                b = mod1(u + shifts[t - 1] + r, k)
                base = ((b - 1) * 2 + (t - 1)) * split
                ids.extend(range(base + 1, base + split + 1))
        known_sets.append(frozenset(ids))
    users = []
    labels = {}
    for u in range(1, k + 1):
        for p in range(1, 2 * split + 1):
            t = 1 if p % 2 == 1 else 2
            j = (p + 1) // 2
            msg = ((u - 1) * 2 + (t - 1)) * split + j
            if split == 1:
                labels[msg] = f"x[{u},{t}]"
            else:
                labels[msg] = f"x[{u},{t}]#{j}"
            users.append(IcpUser(want=frozenset({msg}), known=known_sets[u - 1]))
    return IcpInstance(n_messages=2 * k * split, users=tuple(users), labels=labels)


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
    ids: dict[tuple[int, int], int] = {}
    messages: list[tuple[int, int]] = []
    cells = []
    for p in range(1, k + 1):
        row = []
        for q in range(1, n_cols + 1):
            key = (profile.demands[p - 1], mod1(p + q, k))
            m = ids.get(key)
            if m is None:
                messages.append(key)
                m = len(messages)
                ids[key] = m
            row.append(m)
        cells.append(tuple(row))
    return IcpTable(
        instance=instance,
        demands=profile,
        n_rows=k,
        n_cols=n_cols,
        coverage=cov,
        cells=tuple(cells),
        messages=tuple(messages),
    )


def as_icp(table: IcpTable) -> IcpInstance:
    """One node per table cell; known side = messages covering the node's row.

    A message wanted in row ``p`` never covers ``p`` itself, so the want and
    known sets stay disjoint even with repeated demands.
    """
    if table.n_cols == 0:
        return IcpInstance(n_messages=0, users=())
    known_by_row = [table.row_known(p) for p in range(1, table.n_rows + 1)]
    users = []
    for p in range(1, table.n_rows + 1):
        for q in range(1, table.n_cols + 1):
            users.append(
                IcpUser(
                    want=frozenset({table.entry(p, q)}),
                    known=known_by_row[p - 1],
                )
            )
    labels = {m: table.message_label(m) for m in range(1, table.n_messages + 1)}
    return IcpInstance(n_messages=table.n_messages, users=tuple(users), labels=labels)


def pair_columns(
    table: IcpTable,
) -> tuple[tuple[UnionIcpDesc, ...], StructuredIcpDesc | None]:
    """Pair column ``q`` with column ``K-iL-q+1`` into union descriptors.

    Even ``K-iL``: ``(K-iL)/2`` unions, no leftover. Odd: the middle column
    remains as a symmetric single descriptor ``(c, c)_{iL}`` with
    ``c = (K-iL-1)/2`` (for ``K-iL = 1`` that is the everyone-knows-everyone
    column ``(0, 0)_{iL}``).
    """
    n = table.n_cols
    unions = tuple(
        UnionIcpDesc(n - q, q - 1, table.coverage) for q in range(1, n // 2 + 1)
    )
    middle = None
    if n % 2 == 1:
        c = (n - 1) // 2
        middle = StructuredIcpDesc(c, c, table.coverage)
    return unions, middle


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
    users = tuple(
        IcpUser(want=frozenset(u["want"]), known=frozenset(u["known"]))
        for u in data["users"]
    )
    labels = None
    if "labels" in data:
        labels = {int(m): v for m, v in data["labels"].items()}
    return IcpInstance(n_messages=data["n_messages"], users=users, labels=labels)
