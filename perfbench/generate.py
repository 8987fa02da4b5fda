"""Seeded synthetic interaction logs for the benchmark workloads.

Items get power-law popularity and belong to overlapping planted
communities of mixed sizes; each user draws most events from one or two
communities and the rest from global popularity.  Integer timestamps,
optional 1-5 ratings and duplicate (user, item) events make the log look
like a rating dump.  The same parameters and seed give the same bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class GenParams:
    n_users: int
    n_items: int
    events_per_user: int  # mean distinct items per user before duplicates
    n_communities: int = 40
    community_items: tuple[int, int] = (8, 60)  # smallest and largest community
    overlap: float = 0.2  # share of community slots filled from other communities
    in_community: float = 0.8  # share of a user's events drawn from their communities
    community_pop_exponent: float = 0.5  # in-community item weights ~ popularity**this
    ratings: bool = False
    duplicate_rate: float = 0.0  # extra events repeating an existing (user, item)


POP_EXPONENT = 0.9  # Zipf exponent of global item popularity
TOP_UP_ROUNDS = 200  # bound on the rounds that fill repeated draws


def _communities(p: GenParams, rng: np.random.Generator) -> list[np.ndarray]:
    """Item sets of mixed sizes; about `overlap` of each set is shared.

    The sizes are spread evenly over the range, so every seed plants the
    same mix of sizes and only which items and users fall where varies."""
    perm = rng.permutation(p.n_items)
    lo, hi = p.community_items
    sizes = rng.permutation(np.round(np.linspace(lo, hi, p.n_communities)).astype(np.int64))
    comms, pos = [], 0
    for size in sizes:
        own = max(1, int(round(size * (1.0 - p.overlap))))
        members = perm[np.arange(pos, pos + own) % p.n_items]
        pos += own
        shared = rng.choice(p.n_items, size=int(size) - own, replace=False)
        comms.append(np.unique(np.concatenate([members, shared])))
    return comms


def generate(p: GenParams, seed: int) -> dict[str, np.ndarray]:
    """Event arrays (user, item, value, timestamp) in file order."""
    rng = np.random.default_rng(seed)
    ranks = rng.permutation(p.n_items) + 1.0
    pop = ranks ** (-POP_EXPONENT)
    pop /= pop.sum()
    comms = _communities(p, rng)

    # Geometric history lengths at evenly spaced quantiles, shuffled: every
    # seed draws the same multiset of lengths, so input sizes do not vary.
    q = (np.arange(p.n_users) + 0.5) / p.n_users
    lengths = np.ceil(np.log1p(-q) / np.log1p(-1.0 / p.events_per_user)).astype(np.int64)
    counts = rng.permutation(np.clip(lengths, 3, p.n_items // 2))
    users = np.repeat(np.arange(p.n_users), counts)
    n_draw = len(users)
    items = rng.choice(p.n_items, size=n_draw, p=pop)
    # Community events: each user has one or two communities, and an event
    # picks one of them, then an item inside it weighted by its popularity.
    home = rng.integers(0, p.n_communities, size=(p.n_users, 2))
    second = rng.random(p.n_users) < 0.5
    in_comm = rng.random(n_draw) < p.in_community
    pick = np.where(second[users] & (rng.random(n_draw) < 0.5), home[users, 1], home[users, 0])
    for c, members in enumerate(comms):
        sel = np.flatnonzero(in_comm & (pick == c))
        if sel.size:
            w = pop[members] ** p.community_pop_exponent
            w /= w.sum()
            items[sel] = members[rng.choice(len(members), size=sel.size, p=w)]
    # One event per (user, item) before duplicates are added on purpose.
    # Community draws repeat items, so each user is then topped up with
    # popular items they lack, until every seed yields the same number of
    # distinct events.
    for _ in range(TOP_UP_ROUNDS):
        key = users.astype(np.int64) * p.n_items + items
        _, first = np.unique(key, return_index=True)
        users, items = users[first], items[first]
        short = np.repeat(np.arange(p.n_users), counts - np.bincount(users, minlength=p.n_users))
        if short.size == 0:
            break
        users = np.concatenate([users, short])
        items = np.concatenate([items, rng.choice(p.n_items, size=short.size, p=pop)])

    if p.duplicate_rate > 0:
        extra = rng.choice(len(users), size=int(round(p.duplicate_rate * len(users))), replace=False)
        users = np.concatenate([users, users[extra]])
        items = np.concatenate([items, items[extra]])
    n = len(users)
    if p.ratings:
        values = rng.choice(np.arange(1, 6), size=n, p=[0.06, 0.11, 0.27, 0.34, 0.22]).astype(float)
    else:
        values = np.ones(n)
    # Timestamps: each user is active in a window; popular items trend early.
    start = rng.integers(1_000_000_000, 1_400_000_000, size=p.n_users)
    stamps = start[users] + rng.integers(0, 30_000_000, size=n) + (ranks[items] * 1000).astype(np.int64)
    order = rng.permutation(n)
    return {
        "user": users[order],
        "item": items[order],
        "value": values[order],
        "timestamp": stamps[order],
    }


def write_csv(path: Path, p: GenParams, events: dict[str, np.ndarray], min_value: float | None) -> dict:
    """Write the raw log and return its description: parameters, row counts
    (all, and those an ingest with `min_value` keeps) and sha256."""
    cols = ["userId", "movieId"]
    fields = [
        np.char.add("u", events["user"].astype(str)),
        np.char.add("m", events["item"].astype(str)),
    ]
    if p.ratings:
        cols.append("rating")
        fields.append(np.char.mod("%.1f", events["value"]))
    cols.append("timestamp")
    fields.append(events["timestamp"].astype(str))
    lines = fields[0]
    for f in fields[1:]:
        lines = np.char.add(np.char.add(lines, ","), f)
    text = ",".join(cols) + "\n" + "\n".join(lines.tolist()) + "\n"
    raw = text.encode("ascii")
    path.write_bytes(raw)
    return {
        "params": asdict(p),
        "rows": int(len(events["user"])),
        "rows_kept_by_min_value": int(
            len(events["value"]) if min_value is None else np.count_nonzero(events["value"] >= min_value)
        ),
        "sha256": hashlib.sha256(raw).hexdigest(),
    }
