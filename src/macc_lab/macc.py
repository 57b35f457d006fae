"""Problem parameters, cyclic index arithmetic, and the uncoded placement rule.

The setting: ``n_files`` files, ``n_caches`` caches arranged on a cycle, and as
many users as caches. User ``j`` reads caches ``j, j+1, ..., j+L-1``
(cyclically). Memory is parameterized by an integer corner index ``i`` so that
each cache holds ``i/K`` of every file. Placement splits every file into ``K``
subfiles and stores subfile ``m`` in the ``i`` caches ``m, m+L, ..., m+(i-1)L``,
which makes subfile ``m`` available to exactly ``i*L`` cyclically consecutive
users.

All user/cache/subfile indices are 1-based, matching the cyclic arithmetic
helpers ``mod1`` and ``circ_interval``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError, as_int


def mod1(n: int, m: int) -> int:
    """Reduce ``n`` modulo ``m`` into ``{1, ..., m}`` (``m`` replaces 0).

    Works for any integer ``n``, including zero and negatives:
    ``mod1(8, 3) == 2``, ``mod1(6, 3) == 3``, ``mod1(0, 5) == 5``.
    """
    if m < 1:
        raise ParameterError(f"modulus must be a positive integer, got {m}")
    return (n - 1) % m + 1


def circ_interval(n: int, m: int, k: int) -> tuple[int, ...]:
    """Cyclically consecutive indices from ``n`` to ``m`` inclusive, on [1, k].

    Wraps past ``k``: ``circ_interval(7, 2, 8) == (7, 8, 1, 2)``. The result
    always has between 1 and ``k`` entries; ``n == m`` gives a singleton.
    """
    if not (1 <= n <= k and 1 <= m <= k):
        raise ParameterError(
            f"interval endpoints must lie in [1, {k}], got ({n}, {m})"
        )
    if n <= m:
        return tuple(range(n, m + 1))
    return tuple(range(n, k + 1)) + tuple(range(1, m + 1))


def interval_contains(start: int, length: int, j: int, k: int) -> bool:
    """True iff ``j`` lies in the cyclic run of ``length`` indices from ``start``."""
    return (j - start) % k < length


@dataclass(frozen=True)
class MaccInstance:
    """Multi-access caching parameters.

    ``memory_index`` is the corner index ``i``; cache memory is ``i*N/K`` file
    units. ``i = 0`` and ``i = ceil(K/L)`` are the trivial corners (rate K and
    rate 0); placement itself is defined for ``1 <= i <= floor(K/L)``.
    Parameters are stored as Python ints; anything but an integer (numpy ones
    included, ``bool`` not) raises :class:`ParameterError`.
    """

    n_files: int
    n_caches: int
    access_degree: int
    memory_index: int

    def __post_init__(self) -> None:
        vars(self).update({name: as_int(value, name) for name, value in vars(self).items()})
        if self.n_caches < 1:
            raise ParameterError(f"need at least one cache, got K={self.n_caches}")
        if self.n_files < 1:
            raise ParameterError(f"need at least one file, got {self.n_files}")
        if not (1 <= self.access_degree <= self.n_caches):
            raise ParameterError(
                f"access degree must lie in [1, {self.n_caches}], got {self.access_degree}"
            )
        k, l = self.n_caches, self.access_degree
        ceil_kl = -(-k // l)
        if not (0 <= self.memory_index <= ceil_kl):
            raise ParameterError(
                f"memory index must lie in [0, {ceil_kl}], got {self.memory_index}"
            )

    @property
    def n_users(self) -> int:
        return self.n_caches

    @property
    def coverage(self) -> int:
        """Number of consecutive users that see any one stored subfile: i*L."""
        return self.memory_index * self.access_degree

    @property
    def memory_per_cache(self) -> Fraction:
        return Fraction(self.memory_index * self.n_files, self.n_caches)


@dataclass(frozen=True)
class DemandProfile:
    """The file requested by each user; entry j is user j's file index, an
    integer stored as a Python int (anything else raises :class:`ParameterError`)."""

    demands: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "demands", tuple(as_int(d, "a demand") for d in self.demands))

    @classmethod
    def worst_case(cls, instance: MaccInstance) -> "DemandProfile":
        """All-distinct demands when possible, cycling through files otherwise."""
        n = instance.n_files
        return cls(tuple(mod1(j, n) for j in range(1, instance.n_users + 1)))

    def check(self, instance: MaccInstance) -> None:
        if len(self.demands) != instance.n_users:
            raise ParameterError(
                f"expected {instance.n_users} demands, got {len(self.demands)}"
            )
        for d in self.demands:
            if not (1 <= d <= instance.n_files):
                raise ParameterError(
                    f"demand {d} outside file range [1, {instance.n_files}]"
                )


def as_demand_profile(instance: MaccInstance, demands) -> DemandProfile:
    """Normalize ``demands`` (sequence, profile, or None for worst case)."""
    if demands is None:
        profile = DemandProfile.worst_case(instance)
    elif isinstance(demands, DemandProfile):
        profile = demands
    else:
        profile = DemandProfile(tuple(demands))
    profile.check(instance)
    return profile


@dataclass(frozen=True)
class PlacementMap:
    """Outcome of placement: what every cache stores and who sees each subfile.

    ``cache_contents[c-1]`` is the set of subfile indices stored by cache
    ``c``; ``subfile_users[m-1]`` is the cyclic run of users able to read
    subfile ``m`` through at least one of their caches.
    """

    instance: MaccInstance
    cache_contents: tuple[frozenset[int], ...]
    subfile_users: tuple[tuple[int, ...], ...]


def place(instance: MaccInstance) -> PlacementMap:
    """Populate caches for memory corner ``i >= 1``.

    Cache ``c`` stores subfiles ``{mod1(c - (r-1)L, K) : r in [i]}`` of every
    file; equivalently subfile ``m`` sits in caches ``m, m+L, ..., m+(i-1)L``.
    Subfile ``m`` is then readable by the ``min(i*L, K)`` consecutive users
    starting at ``mod1(m - L + 1, K)``. At ``i = ceil(K/L)`` (when ``L`` does
    not divide ``K``) coverage wraps all the way around and every user reads
    every subfile.
    """
    k, l, i = instance.n_caches, instance.access_degree, instance.memory_index
    if i < 1:
        raise ParameterError("placement needs memory index >= 1")
    # stored runs c, c-L, ..., c-(i-1)L stay distinct: (i-1)L < K for i <= ceil(K/L)
    contents = tuple(
        frozenset(mod1(c - (r - 1) * l, k) for r in range(1, i + 1))
        for c in range(1, k + 1)
    )
    span = min(instance.coverage, k)
    users = tuple(
        tuple(mod1(m - l + 1 + t, k) for t in range(span)) for m in range(1, k + 1)
    )
    return PlacementMap(instance=instance, cache_contents=contents, subfile_users=users)


def _user_corner(instance: MaccInstance, user: int) -> tuple[int, int, int]:
    """``(K, L, i)`` once ``user`` is checked to be a user of a placed corner."""
    k, l, i = instance.n_caches, instance.access_degree, instance.memory_index
    if not (1 <= user <= k):
        raise ParameterError(f"user must lie in [1, {k}], got {user}")
    if i < 1:
        raise ParameterError("subfile sets need memory index >= 1")
    return k, l, i


def accessible_subfiles(instance: MaccInstance, user: int) -> frozenset[int]:
    """Subfile indices user ``j`` can read across its ``L`` caches.

    These are the ``i*L`` consecutive indices ``mod1(j + l - 1 - (r-1)L, K)``
    for ``l in [L]``, ``r in [i]``; when ``i*L == K`` that is every index and
    the user needs nothing from the broadcast. The complement (size ``K-iL``)
    is exactly the set of subfiles the delivery phase must supply.
    """
    k, l, i = _user_corner(instance, user)
    return frozenset(
        mod1(user + off - 1 - (r - 1) * l, k)
        for off in range(1, l + 1)
        for r in range(1, i + 1)
    )


def needed_subfiles(instance: MaccInstance, user: int) -> tuple[int, ...]:
    """Complement of :func:`accessible_subfiles`, in cyclic order from user j.

    Listing order matches the delivery table's want rows: entry ``q`` is the
    subfile whose user interval starts at ``mod1(j + q, K)``.
    """
    k, l, i = _user_corner(instance, user)
    return tuple(mod1(user + q + l - 1, k) for q in range(1, k - i * l + 1))
