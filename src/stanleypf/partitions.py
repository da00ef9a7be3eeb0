"""Integer partitions and their hook / odd-part statistics.

A partition of n is a nonincreasing sequence of positive parts summing to
n, held as a plain tuple of ints; the empty partition () is the unique
partition of 0. Everything downstream rests on two statistics of a
partition and its conjugate: the odd-part counts O(lambda) and
O(lambda'), and the number of cells of the Young diagram whose hook
length is even.

Row and column indices are 1-based throughout, matching the usual (i, j)
cell convention for Young diagrams.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence


class PartitionStats(namedtuple("PartitionStats", "odd_parts odd_parts_conjugate even_hooks is_t_type")):
    """Per-partition record of the statistics studied here.

    is_t_type is True when O(lambda) == O(lambda') mod 4; the complementary
    partitions (difference 2 mod 4) are called u-type.
    """

    __slots__ = ()


def _parts_stream(n: int) -> Iterator[list[int]]:
    # Yields a LIVE list in decreasing lexicographic order; each yielded
    # value must be consumed before the generator is advanced. Hot loops
    # (millions of partitions at n ~ 60) use this directly to avoid one
    # tuple allocation per partition.
    if n == 0:
        yield []
        return
    parts = [n]
    yield parts
    while True:
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        # decrement the rightmost part > 1, then redistribute the freed
        # weight greedily under the new cap
        rem = len(parts) - i
        parts[i] -= 1
        del parts[i + 1 :]
        cap = parts[i]
        while rem >= cap:
            parts.append(cap)
            rem -= cap
        if rem:
            parts.append(rem)
        yield parts


def partitions_of(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every partition of n exactly once, as a tuple, in decreasing
    lex order.

    The stream never materializes all p(n) partitions at once.
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative integer {n}")
    for parts in _parts_stream(n):
        yield tuple(parts)


def conjugate(lam: Sequence[int]) -> tuple[int, ...]:
    """The conjugate partition: column lengths of the Young diagram."""
    if not lam:
        return ()
    out = []
    rows = len(lam)
    for j in range(1, lam[0] + 1):
        while lam[rows - 1] < j:
            rows -= 1
        out.append(rows)
    return tuple(out)


def odd_parts_count(lam: Sequence[int]) -> int:
    """O(lambda), the number of odd parts."""
    return sum(1 for p in lam if p & 1)


def hook_length(lam: Sequence[int], i: int, j: int) -> int:
    """Hook length of cell (i, j): lam_i - j + lam'_j - i + 1.

    (i, j) must lie in the Young diagram.
    """
    if not 1 <= i <= len(lam) or not 1 <= j <= lam[i - 1]:
        raise ValueError(f"cell ({i}, {j}) is outside the diagram of {tuple(lam)}")
    col = sum(1 for p in lam if p >= j)
    return lam[i - 1] - j + col - i + 1


def _hook_rows(lam: Sequence[int], conj: Sequence[int]) -> Iterator[Iterator[int]]:
    """Each row's hook lengths, as a lazy iterator, from lam and its conjugate.

    Hook (i, j) = (lam_i - i + 1) + (conj_j - j): the column terms are made
    once, and each row adds its own term to the first lam_i of them.
    """
    col_terms = [col - j for j, col in enumerate(conj, 1)]
    for i, row in enumerate(lam, 1):
        yield map((row - i + 1).__add__, col_terms[:row])


def _even_hooks(lam: Sequence[int], conj: Sequence[int]) -> int:
    # Cells are counted row by row. Hook (i, j) = lam_i - j + conj_j - i + 1
    # is even exactly when conj_j - j = i - 1 - lam_i mod 2, so row i holds
    # as many even hooks as there are columns j <= lam_i of that parity.
    # odd_upto[j] counts the columns j' <= j with conj_j' - j' odd.
    # This is one side of the hook-parity theorem: it must read only hook
    # lengths, never odd-part counts or the 2-core.
    odd_upto = [0]
    odd = 0
    for j, col in enumerate(conj, 1):
        odd += (col - j) & 1
        odd_upto.append(odd)
    count = 0
    for i0, row in enumerate(lam):  # i0 = i - 1
        count += odd_upto[row] if (i0 - row) & 1 else row - odd_upto[row]
    return count


def _statistics(lam: Sequence[int]) -> tuple[tuple[int, ...], int, int, int]:
    """(lam', O(lam), O(lam'), H_e(lam)) from one conjugation.

    The odd-part counts and the even-hook count share only lam and its
    conjugate.
    """
    conj = conjugate(lam)
    return conj, odd_parts_count(lam), odd_parts_count(conj), _even_hooks(lam, conj)


def classify(lam: Sequence[int]) -> PartitionStats:
    """Full statistics record for one partition."""
    _conj, odd, odd_conj, even_hooks = _statistics(lam)
    return PartitionStats(odd, odd_conj, even_hooks, (odd - odd_conj) % 4 == 0)


def inner_corners(lam: Sequence[int]) -> list[tuple[int, int]]:
    """Cells (i, lam_i) whose removal leaves a valid Young diagram."""
    if not lam:
        raise ValueError("the empty partition has no inner corners")
    corners = []
    for i, row in enumerate(lam, 1):
        if i == len(lam) or lam[i] < row:
            corners.append((i, row))
    return corners


def corner_parity_check(lam: Sequence[int], v: tuple[int, int]) -> bool:
    """Whether the corner-removal parity claim holds at inner corner v.

    With lam- the partition after removing v = (i, j), the claim is the
    biconditional: H_e(lam) == H_e(lam-) mod 2 exactly when
    lam_i == lam'_j mod 2 (both read off the original lam).
    """
    if v not in inner_corners(lam):
        raise ValueError(f"{v} is not an inner corner of {tuple(lam)}")
    i, j = v
    removed = list(lam)
    removed[i - 1] -= 1
    if removed[i - 1] == 0:
        removed.pop()
    same_hook_parity = (_statistics(lam)[3] - _statistics(removed)[3]) % 2 == 0
    col = sum(1 for p in lam if p >= j)
    same_cell_parity = (lam[i - 1] - col) % 2 == 0
    return same_hook_parity == same_cell_parity
