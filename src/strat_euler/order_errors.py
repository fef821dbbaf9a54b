"""Why a frontier order is refused.

``StratumPoset`` closes its order in one ascending pass, which is right
only when every generating pair raises dimension.  When some pair does not,
it imports this module to name the offender: the first cycle of the
closure, else its first pair that does not raise dimension.  Only a refused
census compiles this code.
"""

from __future__ import annotations


def transitive_closure(ids: list[str], pairs: set[tuple[str, str]]) -> dict[str, set[str]]:
    """Each id -> the ids strictly below it, through any chain of pairs,
    composed to a fixpoint so that cycles close too."""
    below: dict[str, set[str]] = {i: set() for i in ids}
    for a, b in pairs:
        below[b].add(a)
    changed = True
    while changed:
        changed = False
        for b in ids:
            extra = set()
            for a in below[b]:
                extra |= below[a]
            if not extra <= below[b]:
                below[b] |= extra
                changed = True
    return below


def order_error(
    order: tuple[str, ...], dims: list[int], pairs: frozenset[tuple[str, str]]
) -> ValueError:
    """The error for pairs of which some does not raise dimension, naming
    the first cycle of their closure, else its first pair that does not
    raise dimension, in row-major (dim, id) order."""
    closed = transitive_closure(list(order), set(pairs))
    for sid in order:
        if sid in closed[sid]:
            return ValueError(f"order relation has a cycle through {sid!r}")
    index = {sid: i for i, sid in enumerate(order)}
    i, k = min(
        (index[a], index[b]) for b in order for a in closed[b] if dims[index[a]] >= dims[index[b]]
    )
    return ValueError(
        f"frontier order must raise dimension: {order[i]!r} (dim {dims[i]}) "
        f"< {order[k]!r} (dim {dims[k]})"
    )
