"""Integer partitions and their hook / odd-part statistics.

A partition of n is a nonincreasing sequence of positive parts summing to
n, held as a plain tuple of ints; the empty partition () is the unique
partition of 0. Everything downstream rests on two statistics of a
partition and its conjugate: the odd-part counts O(lambda) and
O(lambda'), and the number of cells of the Young diagram whose hook
length is even. The partition listing's entries (those statistics and the
hook rows) come from _partition_entries, which builds each partition from
its suffixes without conjugating. The combinatorial sweep's _suffix_walk
builds each partition from its tail the same way, carrying the conjugate,
both odd-part counts and the even-hook count over from that tail, and
yields the partitions in the order the reports index them.

Row and column indices are 1-based throughout, matching the usual (i, j)
cell convention for Young diagrams.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import chain


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


def _suffix_walk(n_max: int) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...], int, int, int, int]]:
    """Yield (n, lam, lam', O(lam), O(lam'), He(lam), a) for every partition
    of n <= n_max, where a = #{j <= lam_1 : lam'_j - j odd}, in the order
    the reports index them: n ascending, then decreasing lex order within n.

    Each partition x.mu of n is built from its tail mu, a partition of
    n - x with parts at most x. A tail recurs only inside some y.mu with
    y >= mu_1, so it is kept while |mu| + mu_1 <= n_max, grouped by weight
    and first part; reading the groups of weight n - x by first part
    m <= x, largest first, gives the partitions led by x in decreasing lex
    order. Prepending x to mu, with m = mu_1 (0 for the empty tail), raises
    columns 1..m by one and adds x - m columns of height 1, so
    lam' = (mu'_j + 1 for j <= m) + (1,) * (x - m), O gains x & 1 and O'
    becomes x - O(mu').

    Hook (i, j) = lam_i - j + lam'_j - i + 1 reads only the suffix
    (lam_i, lam_i+1, ...), so only the new first row's hooks are new. Hook
    (1, j) is x - m, ..., 1 for j > m, floor((x - m) / 2) of them even; for
    j <= m it is x + 1 + mu'_j - j, even at the a(mu) columns with mu'_j - j
    odd when x is even and at the other m - a(mu) when x is odd. The parity
    of lam'_j - j flips for j <= m and is odd at the even j in (m, x], so
    a(lam) = m - a(mu) + floor(x / 2) - floor(m / 2). He and a come from the
    part sizes through the hook formula, never from O or O', and O and O'
    never read He or a.
    """
    if n_max < 0:
        raise ValueError(f"cannot partition a negative integer {n_max}")
    yield 0, (), (), 0, 0, 0, 0
    # kept[w][m] holds, for each kept tail mu of weight w led by m, what x.mu
    # reads of it: mu, mu' raised by one, O, O', He + a, He + m - a and
    # m - a - floor(m / 2)
    kept = [[[] for _ in range(w + 1)] for w in range(n_max + 1)]
    kept[0][0].append(((), (), 0, 0, 0, 0, 0))
    one_more = (1).__add__
    for n in range(1, n_max + 1):
        for x in range(n, 0, -1):
            groups = kept[n - x]
            for m in range(min(x, n - x), -1, -1):
                for mu, raised, odd, odd_conj, row_if_even, row_if_odd, a_base in groups[m]:
                    node = (
                        n, (x,) + mu, raised + (1,) * (x - m), odd + (x & 1), x - odd_conj,
                        (row_if_odd if x & 1 else row_if_even) + (x - m) // 2, a_base + x // 2,
                    )
                    yield node
                    if n + x <= n_max:  # |lam| + lam_1 <= n_max
                        _, lam, conj, lam_odd, lam_odd_conj, even_hooks, a = node
                        kept[n][x].append((
                            lam, tuple(map(one_more, conj)), lam_odd, lam_odd_conj,
                            even_hooks + a, even_hooks + x - a, x - a - x // 2,
                        ))


def _partition_entries(n: int, kind_filter: str, render):
    """(parts, O, O', He, type, hook rows) for each partition of n the
    listing keeps, in decreasing lex order. parts is the parts written out,
    ", "-separated. The hook rows are one value made bottom row first: the
    empty partition's is "", and x.mu's is render(its first row of hook
    lengths, the value of mu); render None leaves them "".

    Hook (i, j) = lam_i - j + #{k >= i : lam_k >= j} reads only the suffix
    (lam_i, lam_i+1, ...), so the grid of lam = x.mu is one new row on top of
    the grid of mu = lam[1:]. Each suffix's entry (parts, rows, He, O, O',
    first part, first row and the even hooks in it) is made once, from the
    entry of its own tail: with m = mu_1, the first row of x.mu is that of mu
    plus x - m + 1, then x - m, ..., 1, since lam'_j = mu'_j + 1 for j <= m
    and 1 beyond. An even shift keeps each hook's parity and an odd one flips
    it, so with e the even hooks of mu's first row, the new row holds e or
    m - e over its first m cells and floor((x - m) / 2) beyond: He gains
    that many in O(1). O gains x & 1 and O' becomes x - O(mu'), so the type comes
    from the parts and He from the hook lengths, neither from the other, and
    nothing is conjugated. An entry's parts and rows are one concatenation
    onto its tail's, so each is rendered once per suffix, not per partition.

    A suffix mu recurs only inside a longer suffix y.mu with y >= mu_1,
    which fits in n only when |mu| + 2 mu_1 <= n, so only those entries are
    kept; and once the first part falls below mu_1, mu cannot recur, so the
    entries under each first part are dropped as the listing passes it.
    """

    def extend(x, entry):
        parts, rows, even_hooks, odd, odd_conj, m, row, row_even = entry
        row_even = (row_even if (x - m) & 1 else m - row_even) + (x - m) // 2
        if render is not None:
            row = [*map((x - m + 1).__add__, row), *range(x - m, 0, -1)]
            rows = render(row, rows)
        parts = f"{x}, {parts}" if m else str(x)
        return parts, rows, even_hooks + row_even, odd + (x & 1), x - odd_conj, x, row, row_even

    empty = [("", "", 0, 0, 0, 0, (), 0)]
    kept = [{} for _ in range(n + 1)]  # y -> {m: entries of the partitions of m led by y}

    def tails(m, cap):
        # entries of the partitions of m with parts <= cap, in decreasing lex order
        if m == 0:
            return empty
        return chain.from_iterable(led_by(m, y) for y in range(min(m, cap), 0, -1))

    def led_by(m, y):
        entries = kept[y].get(m)
        if entries is None:
            entries = [extend(y, entry) for entry in tails(m - y, y)]
            if m + 2 * y <= n:  # |mu| + 2 mu_1 <= n
                kept[y][m] = entries
        return entries

    def listing():
        for x in range(n, 0, -1):
            del kept[x + 1 :]  # no later partition holds a suffix led by more than x
            for entry in tails(n - x, x):
                yield extend(x, entry)

    for parts, rows, even_hooks, odd, odd_conj, _, _, _ in listing() if n else empty:
        kind = "t" if (odd - odd_conj) % 4 == 0 else "u"
        if kind_filter == "all" or kind == kind_filter:
            yield parts, odd, odd_conj, even_hooks, kind, rows


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


def classify(lam: Sequence[int]) -> PartitionStats:
    """Full statistics record for one partition."""
    conj = conjugate(lam)
    odd, odd_conj = odd_parts_count(lam), odd_parts_count(conj)
    return PartitionStats(odd, odd_conj, _even_hooks(lam, conj), (odd - odd_conj) % 4 == 0)


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
    same_hook_parity = (_even_hooks(lam, conjugate(lam)) - _even_hooks(removed, conjugate(removed))) % 2 == 0
    col = sum(1 for p in lam if p >= j)
    same_cell_parity = (lam[i - 1] - col) % 2 == 0
    return same_hook_parity == same_cell_parity
