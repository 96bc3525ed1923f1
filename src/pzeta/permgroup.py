"""Finite permutation groups on points ``{0, ..., degree-1}``.

The public surface is :class:`Permutation`, :class:`PermGroup`,
:class:`StabilizerChain`, :class:`AlmostSimpleSpec` and the builtin
constructors.

A :class:`PermGroup` first computes, once, a stabilizer chain by
deterministic Schreier-Sims on numpy rows: a base (points whose images
determine an element) and one transversal per base point, each a 2-D
array in the element table's dtype, with Schreier generators sifted in
batches.  The group order is the
product of the transversal sizes, so order bounds and lattice budgets
are checked before any element is listed.  Only then, lazily and below
a hard order bound, the group materializes an indexed element table:
the product of the transversals, a ``(order, degree)`` array of image
rows sorted lexicographically.  An element is found from its images of
the base: the images form an integer key, and keys are looked up in
bulk with a dense table or by bisection.  Products and conjugates by a
fixed element are cached as columns of element indices, so closure,
conjugation and coset actions are batched gathers on integer arrays,
which is what makes subgroup-lattice work for groups with a few
thousand elements practical in Python.

Composition convention: ``(p * q)(x) == q(p(x))``, i.e. products act
left to right (apply p first).
"""

from __future__ import annotations

import bisect
import re
from functools import cached_property
from math import gcd, prod
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidParameter, NotNormal, OrderBoundExceeded
from .numtheory import is_prime, prime_factors

DEFAULT_MAX_GROUP_ORDER = 1_000_000
# Bytes of cached multiplication and conjugation columns one engine keeps.
COLUMN_CACHE_BYTES = 16 << 20
# A dense key -> index table is used when it needs at most this many
# slots per element; larger key spaces are searched by bisection.
_DENSE_SLOTS_PER_ELEMENT = 16
# Largest int64 key space; beyond it keys are compared as byte strings.
_INT_KEY_LIMIT = 1 << 62
# Points per block of the int64 flat indices of a chain's gathers, which
# bounds their memory at 8 times this many bytes.
_INDEX_ELEMENTS = 1 << 14


class Permutation:
    """An immutable bijection of ``{0, ..., degree-1}``."""

    __slots__ = ("_images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(int(x) for x in images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"not a permutation of 0..{len(imgs) - 1}: {imgs}")
        self._images = imgs

    @property
    def images(self) -> tuple[int, ...]:
        return self._images

    @property
    def degree(self) -> int:
        return len(self._images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(degree))
        seen: set[int] = set()
        for cyc in cycles:
            pts = [int(x) for x in cyc]
            for x in pts:
                if not 0 <= x < degree:
                    raise ValueError(f"point {x} outside degree {degree}")
                if x in seen:
                    raise ValueError(f"point {x} repeated across cycles")
                seen.add(x)
            for i, x in enumerate(pts):
                images[x] = pts[(i + 1) % len(pts)]
        return cls(images)

    @classmethod
    def parse(cls, text: str, degree: int) -> "Permutation":
        """Parse disjoint-cycle notation over 0-based points, e.g.
        ``(0 1 2 3 4)(5 6)``.  ``()`` is the identity."""
        stripped = re.sub(r"\s+", " ", text).strip()
        if not re.fullmatch(r"(\s*\(([^()]*)\)\s*)*", stripped):
            raise ValueError(f"cannot parse permutation {text!r}")
        cycles = []
        for body in re.findall(r"\(([^()]*)\)", stripped):
            pts = [int(tok) for tok in re.split(r"[,\s]+", body.strip()) if tok]
            if len(pts) >= 2:
                cycles.append(pts)
        return cls.from_cycles(degree, cycles)

    def __call__(self, x: int) -> int:
        return self._images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(other._images[y] for y in self._images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for x, y in enumerate(self._images):
            inv[y] = x
        return Permutation(inv)

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        out = []
        seen: set[int] = set()
        for start in range(self.degree):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self._images[start]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self._images[x]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        o = 1
        for cyc in self.cycles():
            o = o * len(cyc) // gcd(o, len(cyc))
        return o

    @property
    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self._images))

    def cycle_string(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __repr__(self) -> str:
        return f"Permutation.parse({self.cycle_string()!r}, {self.degree})"


def _dtype_for(degree: int):
    if degree <= 0xFF:
        return np.uint8
    if degree <= 0xFFFF:
        return np.uint16
    return np.uint32


def _inverse_rows(rows: np.ndarray) -> np.ndarray:
    """The inverse of each image row of a 2-D array, by one scatter per
    block of rows."""
    m, n = rows.shape
    inv = np.empty_like(rows)
    flat = inv.reshape(-1)
    values = np.arange(n, dtype=rows.dtype)
    offsets = np.arange(0, m * n, n)[:, None]
    step = max(1, _INDEX_ELEMENTS // n)
    for lo in range(0, m, step):
        flat[rows[lo:lo + step] + offsets[lo:lo + step]] = values
    return inv


def _gather(table: np.ndarray, which: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Rows ``table[which[i]][points[i]]`` for each i (``which`` an intp
    array): the row of points i mapped by row which[i] of the 2-D array
    ``table``, as one flat take per block of rows.  For image rows this
    is "apply points[i], then table[which[i]]"."""
    flat = table.reshape(-1)
    offsets = which[:, None] * table.shape[1]
    out = np.empty(points.shape, dtype=table.dtype)
    step = max(1, _INDEX_ELEMENTS // points.shape[1])
    for lo in range(0, len(points), step):
        out[lo:lo + step] = flat.take(points[lo:lo + step] + offsets[lo:lo + step])
    return out


def _compose(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Image rows of "apply p, then q", on the last axis; the leading
    axes broadcast."""
    return np.take_along_axis(q, p, axis=-1)


class _Orbit:
    """One level of a stabilizer chain: the orbit of the base point b.
    ``rows[i]`` (a 2-D array in ``_dtype_for(degree)``) maps b to
    ``points[i]``, and ``index`` (a dict) and ``where`` (an array over
    the points, 0 off the orbit) give the row of each point.
    ``rows[0]`` is the identity.  The inverse rows are made when the
    level is first sifted through after it grew."""

    __slots__ = ("b", "rows", "points", "index", "where", "_inverse")

    def __init__(self, b: int, rows: np.ndarray):
        self.b = b
        self.rows = rows
        self.points: list[int] = rows[:, b].tolist()
        self.index = dict(zip(self.points, range(len(rows))))
        self.where = np.zeros(rows.shape[1], dtype=np.intp)
        if len(rows) > 1:
            self.where[self.points] = np.arange(len(rows))
        self._inverse: np.ndarray | None = None

    def strip(self, g: np.ndarray) -> np.ndarray:
        """Each row g times the inverse of the row of its image of b, so
        that it fixes b, or g itself when that image is off the orbit:
        one gather for the whole batch.  A row that moves b keeps moving
        it through the strips of the levels below, whose rows fix b."""
        if self._inverse is None:
            self._inverse = _inverse_rows(self.rows)
        return _gather(self._inverse, self.where[g[:, self.b]], g)

    def grow(self, gens: np.ndarray, new: int) -> list[int]:
        """Extend the orbit under the generator rows ``gens``, of which
        the last ``new`` are new to it: the old points under the new
        generators, then the new points under all of them, breadth first,
        reading single images off the rows.  The rows
        u_gamma = u_beta * s along the tree edges are then made by
        pointer jumping: each new point holds the product of the edges
        down from an ancestor, and one gather a round doubles that path,
        so a tree of depth d takes ceil(log2(d)) rounds.

        Returns the pairs (s, j, i) with s(points[j]) = points[i] met on
        the way that are not tree edges, as one flat list.  With the
        pairs of earlier calls their Schreier generators
        rows[j] * gens[s] * rows[i]^-1 generate the stabilizer of b
        (Schreier's lemma); a tree edge's is the identity."""
        pts, index = self.points, self.index
        old, k = len(pts), len(gens)
        # for each new point: its generator edge, the new ancestor its
        # product starts from (-1 for an old one), and that old point
        via: list[int] = []
        up: list[int] = []
        top: list[int] = []
        pairs: list[int] = []
        image = [g.item for g in gens]
        depth = 0
        lo, hi, first = 0, old, k - new
        while lo < hi:
            for j in range(lo, hi):
                beta = pts[j]
                for s in range(first, k):
                    gamma = image[s](beta)
                    i = index.get(gamma)
                    if i is None:
                        index[gamma] = len(pts)
                        pts.append(gamma)
                        via.append(s)
                        up.append(j - old if j >= old else -1)
                        top.append(top[j - old] if j >= old else j)
                    else:
                        pairs += (s, j, i)
            lo, hi, first = hi, len(pts), 0
            depth += hi > lo
        if via:
            m = len(via)
            w = gens[via]
            if depth > 1:
                # the identity in the last row stands for the old ancestor
                w = np.concatenate([w, self.rows[:1]])
                jump = np.asarray(up + [-1], dtype=np.intp)
                whole = np.arange(m + 1)
                for _ in range((depth - 1).bit_length()):
                    w = _gather(w, whole, w[jump])
                    jump = jump[jump]
            self.rows = np.concatenate([self.rows, _gather(w, np.arange(m), self.rows[top])])
            self.where[pts[old:]] = np.arange(old, len(pts))
            self._inverse = None
        return pairs


class StabilizerChain(NamedTuple):
    """A base and strong generating set in its plain form: ``base``
    lists b_0 < b_1 < ..., where b_j is the smallest point moved by the
    pointwise stabilizer G_j of b_0..b_{j-1}, and ``transversals[j]``
    is a 2-D array in ``_dtype_for(degree)`` with one image row u of G_j
    for each point of the orbit of b_j, with u(b_j) running over that
    orbit (the identity first).  Every element is uniquely a product
    u_{k-1} * ... * u_1 * u_0 with u_j a row of ``transversals[j]``, so
    ``order`` is the product of the transversal sizes."""

    base: tuple[int, ...]
    transversals: tuple[np.ndarray, ...]
    order: int

    def membership(self):
        """A test whether image rows of this degree are elements: each
        sifts to the identity through the chain.  Given one row it
        returns a bool; given a 2-D batch, one bool per row, from one
        gather per level for the whole batch."""
        levels = [_Orbit(b, rows) for b, rows in zip(self.base, self.transversals)]

        def member(g):
            g = np.asarray(g)
            batch = g.reshape(-1, g.shape[-1])
            for orbit in levels:
                batch = orbit.strip(batch)
            verdict = (batch == np.arange(batch.shape[1])).all(axis=1)
            return verdict if g.ndim > 1 else bool(verdict[0])

        return member


def _schreier_sims(
    degree: int,
    gen_images: Iterable[Sequence[int]] | np.ndarray,
    max_order: int,
    stop_at: int | None = None,
) -> StabilizerChain:
    """Deterministic Schreier-Sims (Butler 1991, Seress 2003) over every
    moved point in ascending order, on numpy rows.  That sequence is a
    base, and the points whose level has a nontrivial orbit are exactly
    the b_j of :class:`StabilizerChain`.

    Each strong generator h is kept once, with the range of levels
    first..last it generates: it fixes the base points before ``last``
    and moves b_last.  Levels are completed from the bottom up: level l
    is complete when every Schreier generator of it sifts through the
    levels below.  A level's pending Schreier generators u_beta * s
    (beta in the orbit, s a strong generator of the level) are sifted
    as one batch, with one gather per level with a nontrivial orbit;
    a row whose image of a base point is off that level's orbit passes
    it unchanged.  What is left and not the identity stopped at the
    first base point it moves.  For each level where residues stopped,
    the first of them becomes a strong generator of the levels down to
    there, the other residues wait at level l, and work resumes at the
    deepest level with pending rows.  Each pair (beta, s) is met once,
    when the orbit or the generators grow (:meth:`_Orbit.grow`): a tree
    edge gives the row u_{s(beta)} = u_beta * s, a pair with
    u_beta * s = u_{s(beta)} gives the identity, and only the other
    pairs are queued.  Orbits only grow and keep their rows, so a
    Schreier generator that sifted once is never sifted again.

    The product of the orbit sizes never exceeds the group order, so
    the routine raises ``OrderBoundExceeded`` as soon as it passes
    ``max_order``, before any further work.  For a group known to lie in
    one of order ``stop_at``, it returns as soon as the product reaches
    ``stop_at``: the two groups are then equal, each orbit is a whole
    basic orbit, and the chain is already complete.  Every group lies in
    the symmetric group on its moved points, so the same holds when the
    product reaches the factorial of their number: the chain of a full
    symmetric group stops there, without the sifts that would confirm
    each level."""
    dt = _dtype_for(degree)
    ident = np.arange(degree, dtype=dt)
    if not isinstance(gen_images, np.ndarray):
        gen_images = list(gen_images)
    rows = np.asarray(gen_images, dtype=dt).reshape(-1, degree)
    first: dict[bytes, int] = {}
    for k, g in enumerate(rows):
        first.setdefault(g.tobytes(), k)
    first.pop(ident.tobytes(), None)
    rows = rows[list(first.values())]
    points = (rows != ident).any(axis=0).nonzero()[0]
    # |Sym(points)|, the order of the largest group on the moved points,
    # or the first partial product past max_order, which no chain reaches
    symmetric = 1
    for k in range(2, len(points) + 1):
        if symmetric > max_order:
            break
        symmetric *= k
    strong = rows[:0]
    spans: list[tuple[int, int]] = []  # the levels first..last of each strong generator
    orbits: dict[int, _Orbit] = {}
    live: list[int] = []  # the levels of ``orbits``, ascending
    # Schreier generators of each level not yet known to sift, as batches
    # of u_beta * s: sifted from their level, they first lose u_{s(beta)}
    pending: dict[int, list[np.ndarray]] = {}

    def add_generators(hs: np.ndarray, lasts: Sequence[int], first: int) -> bool:
        """Make each row hs[k] a strong generator of levels first..lasts[k]
        and extend their orbits; hs[k] fixes the base points before
        lasts[k].  Whether the orbit sizes now multiply to ``stop_at``
        or to the order of the symmetric group on the moved points."""
        nonlocal strong
        known = len(spans)
        strong = np.concatenate([strong, hs])
        spans.extend((first, last) for last in lasts)
        top = max(lasts)
        for lev in sorted(set(lasts).union(lev for lev in live if first <= lev <= top)):
            ids = [k for k, (lo, hi) in enumerate(spans) if lo <= lev <= hi]
            new = sum(k >= known for k in ids)
            orbit = orbits.get(lev)
            if orbit is None:
                orbit = orbits[lev] = _Orbit(int(points[lev]), ident[None, :])
                bisect.insort(live, lev)
            gens = strong[ids]
            pairs = orbit.grow(gens, new)
            if pairs:
                s, j, i = np.asarray(pairs, dtype=np.intp).reshape(-1, 3).T
                schreier = _gather(gens, s, orbit.rows[j])
                # u_beta * s = u_{s(beta)}: the Schreier generator is the identity
                schreier = schreier[(schreier != orbit.rows[i]).any(axis=1)]
                if len(schreier):
                    pending.setdefault(lev, []).append(schreier)
        size = prod(len(orbits[lev].points) for lev in live)
        if size > max_order:
            raise OrderBoundExceeded(f"group order exceeds bound {max_order}")
        return size in (stop_at, symmetric)

    def sift(g: np.ndarray, first: int) -> tuple[np.ndarray, list[int]]:
        """The rows g, which fix the base points before level ``first``,
        that do not sift to the identity through the levels from
        ``first`` on, stripped as far as they go, and the level where
        each stopped: that of the first base point it moves."""
        for lev in live[bisect.bisect_left(live, first):]:
            g = orbits[lev].strip(g)
        run = points[first:]
        moved = g[:, run] != run
        if not moved.any():
            return g[:0], []
        hit = moved.any(axis=1)
        return g[hit], (first + moved[hit].argmax(axis=1)).tolist()

    full = False
    if len(rows):
        full = add_generators(rows, (rows[:, points] != points).argmax(axis=1).tolist(), 0)
    while pending and not full:
        lev = max(pending)
        left, stops = sift(np.concatenate(pending.pop(lev)), lev)
        if len(left):
            # a new strong generator for each level where a residue stopped
            chosen: dict[int, int] = {}
            for k, stop in enumerate(stops):
                chosen.setdefault(stop, k)
            keep = list(chosen.values())
            if len(keep) < len(left):
                pending[lev] = [np.delete(left, keep, axis=0)]
            full = add_generators(left[keep], list(chosen), lev + 1)
    return StabilizerChain(
        tuple(int(points[lev]) for lev in live),
        tuple(orbits[lev].rows for lev in live),
        prod(len(orbits[lev].points) for lev in live),
    )


def _transversal_product(transversals: Sequence[Sequence[Sequence[int]]], degree: int):
    """Every product u_{k-1} * ... * u_0 of one row per transversal, as
    image rows: one gather per level, each new row after each row so far."""
    dt = _dtype_for(degree)
    table = np.arange(degree, dtype=dt)[None, :]
    for trans in reversed(transversals):
        table = np.asarray(trans, dtype=dt)[:, table].reshape(-1, degree)
    return table


class _Engine:
    """Indexed element table of a finite permutation group, built from
    its stabilizer chain.

    Every element is a product u_{k-1} * ... * u_0 of one row from each
    transversal of the chain; the table is those products, made level
    by level with one gather each.  Its rows, ``self.rows``, are then
    sorted lexicographically so that element indexing is deterministic
    across runs and independent of the chain's internals.  The base
    ``self.base`` is the chain's, b_0 < b_1 < ..., where b_j is the
    smallest point moved by the pointwise stabilizer of b_0..b_{j-1}.
    An element is determined by its images of the base, and its key is
    those images read as digits in radix ``degree``.  Since two
    elements first differ at a base point, sorting by the base images
    sorts the rows, keys increase with the row order, and the position
    of a key is the element index.  Keys are looked up in a dense key ->
    index table when it needs at most ``_DENSE_SLOTS_PER_ELEMENT`` slots
    per element, else by bisection; key spaces past ``_INT_KEY_LIMIT``
    are compared as byte strings.

    ``closure`` and the conjugation methods read int32 columns:
    ``mul`` column g holds the index of i*g for every element i, and
    ``conj`` column g that of g^-1*i*g.  Columns are built on first
    use; one engine keeps at most ``COLUMN_CACHE_BYTES`` of them and
    drops the oldest first.
    """

    def __init__(
        self, degree: int, gen_images: Sequence[Sequence[int]], chain: StabilizerChain
    ):
        self.degree = degree
        dt = _dtype_for(degree)
        table = _transversal_product(chain.transversals, degree)
        self.base = chain.base
        self._base_pts = np.asarray(self.base, dtype=np.intp)
        base_rows = table[:, self._base_pts]
        perm = np.lexsort(base_rows.T[::-1]) if self.base else [0]
        self.rows = table[perm]
        self.order = len(self.rows)
        self._base_rows = base_rows[perm].astype(np.intp)
        span = degree ** len(self.base)
        self._radix = (
            degree ** np.arange(len(self.base) - 1, -1, -1, dtype=np.int64)
            if span <= _INT_KEY_LIMIT
            else None
        )
        self._keys = self._key(self._base_rows)
        self._dense = None
        if self._radix is not None and span <= _DENSE_SLOTS_PER_ELEMENT * self.order:
            self._dense = np.full(span, -1, dtype=np.int32)
            self._dense[self._keys] = np.arange(self.order, dtype=np.int32)
        # the identity is the lexicographically smallest permutation
        self.id_idx = 0
        inv_rows = np.empty_like(self.rows)
        inv_rows[np.arange(self.order)[:, None], self.rows] = np.arange(degree, dtype=dt)
        self.inv = self._lookup(inv_rows[:, self._base_pts]).astype(np.int64)
        gen_rows = np.asarray(gen_images, dtype=dt).reshape(len(gen_images), degree)
        self.gen_indices = tuple(
            dict.fromkeys(
                i for i in self._lookup(gen_rows[:, self._base_pts]).tolist()
                if i != self.id_idx
            )
        )
        self._columns: dict[tuple[str, int], np.ndarray] = {}
        self._column_bytes = 0

    # -- element lookup ---------------------------------------------------

    def _key(self, imgs: np.ndarray) -> np.ndarray:
        """Keys of base-image tuples (last axis): int64 mixed radix, or
        big-endian byte strings when that would overflow."""
        if self._radix is not None:
            return imgs @ self._radix
        packed = np.ascontiguousarray(imgs, dtype=">u4")
        return packed.view(f"V{4 * len(self.base)}")[..., 0]

    def _lookup(self, imgs: np.ndarray) -> np.ndarray:
        """Element indices of group elements given by their base images."""
        key = self._key(imgs)
        if self._dense is not None:
            return self._dense[key]
        return np.searchsorted(self._keys, key)

    def indices_of_rows(self, rows) -> np.ndarray:
        """Element index of each image row (a sequence of points of this
        degree), or -1 for a row that is not an element of the group."""
        rows = np.asarray(rows).reshape(-1, self.degree)
        if rows.size and (rows.min() < 0 or rows.max() >= self.degree):
            raise ValueError(f"image rows must hold points 0..{self.degree - 1}")
        idx = self._lookup(rows[:, self._base_pts]).astype(np.int64)
        idx[(idx < 0) | (idx >= self.order)] = 0
        found = (self.rows[idx] == rows).all(axis=1)
        return np.where(found, idx, -1)

    def _column(self, kind: str, g: int) -> np.ndarray:
        col = self._columns.get((kind, g))
        if col is not None:
            return col
        row = self.rows[g].astype(np.intp)
        if kind == "mul":
            imgs = row[self._base_rows]
        else:
            imgs = row[self.rows[:, self.rows[self.inv[g]][self._base_pts]]]
        col = self._lookup(imgs).astype(np.int32, copy=False)
        if col.nbytes <= COLUMN_CACHE_BYTES:
            while self._column_bytes + col.nbytes > COLUMN_CACHE_BYTES:
                oldest = self._columns.pop(next(iter(self._columns)))
                self._column_bytes -= oldest.nbytes
            self._columns[(kind, g)] = col
            self._column_bytes += col.nbytes
        return col

    # -- single element ops -------------------------------------------

    def mul(self, i: int, j: int) -> int:
        """Index of "apply i, then j"."""
        return int(self.mul_pairs(i, j))

    def conj_elem(self, x: int, g: int) -> int:
        """Index of g^-1 * x * g."""
        return int(self._column("conj", g)[x])

    def commutator(self, a: int, b: int) -> int:
        return self.mul(self.mul(self.inv[a], self.inv[b]), self.mul(a, b))

    def permutation(self, i: int) -> Permutation:
        return Permutation(self.rows[i].tolist())

    # -- batched ops ----------------------------------------------------

    def conj_set(self, ids: np.ndarray, g: int) -> np.ndarray:
        """Indices of g^-1 * i * g for each i in ids."""
        return self._column("conj", g)[ids]

    def column_table(self, kind: str, gens: Sequence[int]) -> np.ndarray:
        """Row k is the ``kind`` column of gens[k]: for "conj" the index
        of g^-1 * i * g for every element i, for "mul" that of i * g.
        One gather applies all of ``gens`` to a set."""
        cols = [self._column(kind, g) for g in gens]
        return np.array(cols, dtype=np.int32).reshape(len(gens), self.order)

    def mul_pairs(self, a: int | np.ndarray, b: int | np.ndarray) -> np.ndarray:
        """Indices of the products a * b ("apply a, then b") of element
        indices, broadcast over a and b (ints or index arrays): the
        result has their broadcast shape.  Uncached, so one call forms
        any set of products without building a column."""
        return self._lookup(self.rows[np.asarray(b)[..., None], self._base_rows[a]])

    def closure(
        self,
        gen_idx: Sequence[int],
        bail_half: bool = False,
        known: np.ndarray | None = None,
    ):
        """Sorted element indices of the subgroup generated by gen_idx.

        A breadth-first search under right multiplication by the
        generators.  It starts from the identity, or, when ``known``
        holds the sorted element indices of K = <gen_idx[:-1]>, with K
        marked and the elements of K*e outside K as its frontier, e the
        last generator: a word in the generators first leaves K at a
        letter e, so every element of <K, e> outside K is reached from
        K*e, and K itself is not rebuilt.

        With ``bail_half=True`` returns None as soon as the subgroup is
        known to be the whole group (more than half the elements seen),
        which is the common case during lattice extension.
        """
        gens = [int(g) for g in dict.fromkeys(gen_idx) if g != self.id_idx]
        if not gens:
            return np.asarray([self.id_idx], dtype=np.int64)
        cols = [self._column("mul", g) for g in gens]
        # unseen[x]: x not reached yet, so a gather's new elements are
        # picked without inverting a membership mask
        unseen = np.empty(self.order, dtype=bool)
        unseen.fill(True)
        if known is None:
            frontier = np.asarray([self.id_idx])
            count = 1
        else:
            unseen[known] = False
            frontier = self._column("mul", int(gen_idx[-1]))[known].astype(np.intp)
            frontier = frontier[unseen[frontier]]
            count = len(known) + frontier.size
        unseen[frontier] = False
        half = self.order // 2
        if bail_half and count > half:
            return None
        while frontier.size:
            new = []
            for col in cols:
                # right multiplication is a bijection and unseen is
                # updated per generator, so ix holds no duplicates
                ix = col[frontier].astype(np.intp)
                ix = ix[unseen[ix]]
                unseen[ix] = False
                count += ix.size
                new.append(ix)
                if bail_half and count > half:
                    return None
            frontier = np.concatenate(new)
        return np.flatnonzero(~unseen)

    def orbit_minima(
        self, ids: np.ndarray, right: Sequence[int], conj: Sequence[int]
    ) -> np.ndarray:
        """The elements of ``ids`` (ascending indices) that are the least
        of ``ids`` in their orbit under the group generated by the maps
        x -> x*r (r in ``right``), x -> c^-1*x*c (c in ``conj``) and the
        power maps (``power_maps``), which keep every cyclic subgroup.

        Min-label propagation (``_min_labels``) over ranks that put
        ``ids`` first: rank x for x in ids, order + x for any other x.
        At the fixpoint x in ids is least of ids in its orbit when its
        label is x."""
        n = self.order
        maps = [self._column("mul", r) for r in right]
        maps += [self._column("conj", c) for c in conj]
        maps += self.power_maps()
        labels = np.arange(n, 2 * n)
        labels[ids] = ids
        labels = _min_labels(labels, maps)
        return ids[labels[ids] == ids]

    # -- element statistics ---------------------------------------------

    @cached_property
    def _cyclic(self):
        """(element orders, ``pp_cyclic_generator_reps()``,
        ``pp_rep_pth_powers()``, ``power_maps()``), from one walk over
        the powers of every element.

        A power map x -> x^j(|x|), with j(n) a unit mod n, permutes the
        elements and sends each x to a generator of <x>.  The first map
        takes j(n) = g_p, the least primitive root mod p, when n is a
        power of an odd prime p (g_p generates the units mod every p^a
        for p < 40487, and is a unit mod p^a always), and j(n) = -1
        otherwise.  When some element has order 2^a >= 8, a second map
        takes j(n) = 3 for n a power of 2 (3 and -1 generate the units
        mod 2^a) and j(n) = 1 otherwise.  The walk keeps i^m for every
        step m that is a prime of |G| or a g_p, before its early stop:
        the last step, m = exponent, may be one of them (C2 x C2 stops at
        m = 2).

        The maps join the generators of a cyclic p-subgroup (p < 40487)
        into one orbit, so the least of them is the p-element whose min
        label over the maps (``_min_labels``, as in ``orbit_minima``) is
        itself."""
        ids = np.arange(self.order)
        orders = np.zeros(self.order, dtype=np.int64)
        primes = prime_factors(self.order)
        roots = {p: _primitive_root(p) for p in primes if p > 2}
        steps = set(primes).union(roots.values(), [3])
        powers = {}
        pts = self._base_rows  # base images of i^m for every i
        for m in range(1, self.order + 1):  # the exponent divides |G|
            idx = self._lookup(pts)
            if m in steps:
                powers[m] = idx
            orders[(orders == 0) & (idx == self.id_idx)] = m
            if orders.all():
                break
            pts = self.rows[ids[:, None], pts]
        p_elements = np.zeros(self.order, dtype=bool)
        pth = np.zeros(self.order, dtype=np.int64)
        maps = [self.inv.copy()]
        for p in primes:
            p_part = p
            while self.order % (p_part * p) == 0:
                p_part *= p
            # |i| divides |G|, so it is a power of p iff it divides p_part
            p_power = p_part % orders == 0
            p_elements |= p_power
            np.copyto(pth, powers[p], where=p_power)
            if p > 2:
                np.copyto(maps[0], powers[roots[p]], where=p_power)
            elif self.order % 8 == 0 and orders.max(initial=1, where=p_power) >= 8:
                maps.append(np.where(p_power, powers[3], ids))
        p_elements[self.id_idx] = False
        reps = np.flatnonzero(p_elements & (_min_labels(ids, maps) == ids))
        return orders, tuple(reps.tolist()), pth[reps], tuple(maps)

    def element_orders(self) -> np.ndarray:
        return self._cyclic[0]

    def pp_cyclic_generator_reps(self) -> tuple[int, ...]:
        """One generator per distinct cyclic subgroup of prime-power
        order, ascending: the smallest index among the generators of
        that subgroup.  Lattice enumeration draws its extension
        candidates from these, since every cover H of a subgroup K is
        generated by K and any generator of one of them whose p-th power
        lies in K (lattice.py tries only one per orbit of K's double
        cosets, its normalizer and the power maps)."""
        return self._cyclic[1]

    def pp_rep_pth_powers(self) -> np.ndarray:
        """c^p for each c of ``pp_cyclic_generator_reps()``, in the same
        order, where |c| is a power of the prime p."""
        return self._cyclic[2]

    def power_maps(self) -> tuple[np.ndarray, ...]:
        """One or two permutations x -> x^j(|x|) of the element indices,
        j(n) a unit mod n (see ``_cyclic``).  Each keeps every cyclic
        subgroup; together they join the generators of a cyclic
        subgroup of order p^a, p < 40487, into one orbit."""
        return self._cyclic[3]

    # -- structural helpers ----------------------------------------------

    def is_subgroup_normal(self, ids: Sequence[int]) -> bool:
        arr = np.unique(np.asarray(ids, dtype=np.int64))
        member = np.zeros(self.order, dtype=bool)
        member[arr] = True
        return all(member[self.conj_set(arr, g)].all() for g in self.gen_indices)

    def normal_closure(
        self, seeds: Iterable[int], conjugators: Sequence[int] | None = None
    ) -> np.ndarray:
        """Sorted element indices of the least subgroup that contains
        ``seeds`` and is closed under conjugation by ``conjugators``
        (by default the group's generators: the normal closure in G).

        A subgroup is closed once the conjugates of its generators lie
        in it, and conjugates of the earlier generators already lie in
        the earlier closure; so each round adds, as generators, the
        conjugates of the last round's new generators that fall
        outside, and closes again."""
        if conjugators is None:
            conjugators = self.gen_indices
        gens = list(dict.fromkeys(int(x) for x in seeds))
        new = np.asarray(gens, dtype=np.int64)
        while True:
            closed = self.closure(gens)
            member = np.zeros(self.order, dtype=bool)
            member[closed] = True
            found = []
            for c in conjugators:
                # conjugation by c is a bijection: no duplicates within y
                y = self.conj_set(new, c)
                y = y[~member[y]]
                member[y] = True
                found.append(y)
            new = np.concatenate(found) if found else new[:0]
            if not new.size:
                return closed
            gens += new.tolist()

    def sylow2(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """A Sylow 2-subgroup: (sorted element indices, generators).

        Seeded with the least-index 2-element of largest order, and
        grown by adjoining the least-index 2-element outside the current
        2-subgroup P that normalizes it; such an element exists below
        full Sylow order because normalizers grow in 2-groups.  The
        normalizer is read from one mask, the x with x^-1 * g * x in P
        for every generator g of P: the products of x^-1 * g (the
        ``mul`` column of g at x^-1) with x, one ``mul_pairs`` per g.
        """
        target = self.order & -self.order  # the 2-part of |G|
        if target == 1:
            return (self.id_idx,), ()
        orders = self.element_orders()
        two_power = (orders & (orders - 1)) == 0
        two_power[self.id_idx] = False
        best = int(orders[two_power].max())
        seed = int(np.argmax(two_power & (orders == best)))
        gens = [seed]
        arr = self.closure(gens)
        ids = np.arange(self.order)
        while len(arr) < target:
            member = np.zeros(self.order, dtype=bool)
            member[arr] = True
            candidates = two_power & ~member
            for g in gens:
                candidates &= member[self.mul_pairs(self._column("mul", g)[self.inv], ids)]
            if not candidates.any():
                raise RuntimeError("Sylow 2-subgroup growth stalled")
            gens.append(int(np.argmax(candidates)))
            arr = self.closure(gens, known=arr)
        assert len(arr) == target
        return tuple(arr.tolist()), tuple(gens)

    def quotient_action(self, normal_ids: Sequence[int]):
        """Coset action of the group on the right cosets of a normal
        subgroup.  Returns ``(degree, gen_rows, image_of)`` where
        ``image_of(i)`` is the induced permutation row of element i."""
        if not self.is_subgroup_normal(normal_ids):
            raise NotNormal("quotient by a non-normal subgroup")
        narr = np.asarray(sorted(int(x) for x in normal_ids), dtype=np.int64)
        coset = np.full(self.order, -1, dtype=np.int64)
        reps: list[int] = []
        for x in range(self.order):
            if coset[x] >= 0:
                continue
            cid = len(reps)
            reps.append(x)
            coset[self.mul_pairs(narr, x)] = cid
        degree = len(reps)
        reps_arr = np.asarray(reps, dtype=np.int64)

        def image_of(e: int) -> list[int]:
            return coset[self.mul_pairs(reps_arr, e)].tolist()

        gen_rows = [image_of(g) for g in self.gen_indices]
        return degree, gen_rows, image_of


class PermGroup:
    """A finite permutation group given by generators.

    The order comes from a stabilizer chain, without listing elements.
    The element table is materialized lazily, from the chain, and only
    if the order stays below ``max_order`` (default one million).
    """

    def __init__(
        self,
        degree: int,
        generators: Iterable[Permutation | Sequence[int]] = (),
        name: str | None = None,
        max_order: int = DEFAULT_MAX_GROUP_ORDER,
    ):
        if not isinstance(degree, int) or degree < 1:
            raise ValueError("degree must be an int >= 1")
        gens = []
        for g in generators:
            perm = g if isinstance(g, Permutation) else Permutation(g)
            if perm.degree != degree:
                raise ValueError(
                    f"generator degree {perm.degree} does not match group degree {degree}"
                )
            gens.append(perm)
        self.degree = degree
        self.generators: tuple[Permutation, ...] = tuple(gens)
        self.name = name or f"G<{degree}>"
        self.max_order = max_order
        self._rows: np.ndarray | None = None
        self._chain: StabilizerChain | None = None
        self._eng: _Engine | None = None
        self._lattice = None

    # -- element access --------------------------------------------------

    @property
    def generator_rows(self) -> np.ndarray:
        """The generators' image rows, one ``(len(generators), degree)``
        array in ``_dtype_for(degree)``, built once."""
        if self._rows is None:
            self._rows = np.asarray(
                [g.images for g in self.generators], dtype=_dtype_for(self.degree)
            ).reshape(-1, self.degree)
        return self._rows

    @property
    def stabilizer_chain(self) -> StabilizerChain:
        """Base and transversals, computed once; raises
        ``OrderBoundExceeded`` for a group above ``max_order``."""
        if self._chain is None:
            self._chain = _schreier_sims(self.degree, self.generator_rows, self.max_order)
        return self._chain

    @property
    def engine(self) -> _Engine:
        if self._eng is None:
            self._eng = _Engine(self.degree, self.generator_rows, self.stabilizer_chain)
        return self._eng

    @property
    def order(self) -> int:
        return self.stabilizer_chain.order

    def elements(self) -> list[Permutation]:
        eng = self.engine
        return [eng.permutation(i) for i in range(eng.order)]

    def permutation(self, index: int) -> Permutation:
        return self.engine.permutation(index)

    def index_of(self, perm: Permutation) -> int:
        if perm.degree == self.degree:
            i = int(self.engine.indices_of_rows(perm.images)[0])
            if i >= 0:
                return i
        raise KeyError(f"{perm!r} is not an element of {self.name}")

    def __contains__(self, perm: Permutation) -> bool:
        if not isinstance(perm, Permutation) or perm.degree != self.degree:
            return False
        return int(self.engine.indices_of_rows(perm.images)[0]) >= 0

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    # -- structure -----------------------------------------------------

    @property
    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1 :])

    def subgroup_lattice(self, budget=None):
        """Complete subgroup lattice (see :mod:`pzeta.lattice`).

        The first successful computation is cached, and a later call
        returns it when its order and node count fit the later budget.
        Otherwise the lattice is built afresh under that budget.  The
        walk does not depend on the budget, so that build raises what a
        first call would, time hint included, after at most the
        budget's own work.
        """
        from .lattice import DEFAULT_BUDGET, subgroup_lattice

        limits = budget or DEFAULT_BUDGET
        if (self._lattice is None or self.order > limits.max_order
                or self._lattice.node_count > limits.max_subgroups):
            self._lattice = subgroup_lattice(self, budget)
        return self._lattice

    def __repr__(self) -> str:
        return f"PermGroup({self.name!r}, degree={self.degree}, gens={len(self.generators)})"


def _derived_order(group: PermGroup) -> int:
    """|G'|, from stabilizer chains: G' is the normal closure in G of
    the commutators of G's generators.  Each round adds, as generators,
    the conjugates by G's generators of the last round's new generators
    that do not sift through the chain of the generators so far, all
    conjugated and sifted as one batch.  G' <= G, so a chain whose orbit
    sizes multiply to |G| stops there: G' = G."""
    gens = group.generator_rows
    inv = _inverse_rows(gens)
    a, b = np.tril_indices(len(gens), -1)
    # [a, b] = a^-1 b^-1 a b, and below g^-1 h g (left factor first)
    new = _compose(_compose(_compose(inv[a], inv[b]), gens[a]), gens[b])
    seeds = new
    while True:
        chain = _schreier_sims(group.degree, seeds, group.order, stop_at=group.order)
        if chain.order == group.order:
            return chain.order
        conjugates = _compose(_compose(inv[None], new[:, None]), gens[None])
        conjugates = conjugates.reshape(-1, group.degree)
        new = conjugates[~chain.membership()(conjugates)]
        if not len(new):
            return chain.order
        seeds = np.concatenate([seeds, new])


def _min_labels(labels: np.ndarray, maps) -> np.ndarray:
    """Min-label propagation to a fixpoint.  ``labels[x]`` is the rank
    of an element in x's orbit under the maps (x -> ``col[x]`` for each
    col in ``maps``), where the element of rank r is r mod len(labels).
    A pass takes, along every map, the smaller of a label and the label
    of the image, then jumps pointers once (each label becomes the label
    of the element it ranks); labels never grow, and a pass that changes
    nothing leaves the least rank of every orbit on all of it."""
    while True:
        new = labels
        for col in maps:
            new = np.minimum(new, new.take(col))
        new = new.take(new, mode="wrap")
        if (new == labels).all():
            return labels
        labels = new


def _orbit_roots(gens: np.ndarray) -> np.ndarray:
    """The least point of each point's orbit under the generator rows
    ``gens`` and their inverses."""
    maps = np.concatenate([gens, _inverse_rows(gens)])
    return _min_labels(np.arange(gens.shape[1]), maps)


def _centralizer_is_trivial(group: PermGroup, socle: PermGroup) -> bool:
    """Whether C_X(S) = 1 for S <= X on the same points, from chains.

    C_X(S) keeps S-stabilizers, so it fixes each point outside Delta,
    the points beta with S_beta = S_gamma for some gamma != beta, and
    C_X(S) = C_K(S) for K the pointwise stabilizer of those points.  An
    S-orbit O with least point r lies in Delta, with the orbit of every
    such gamma, when Fix(S_r) holds another point whose orbit has |O|
    points: S_r is generated by the Schreier generators of O
    (:meth:`_Orbit.grow`), and only those points are tested.  K is the
    tail of a chain of X relabelled with Delta last."""
    n = group.degree
    dt = _dtype_for(n)
    s_rows = socle.generator_rows
    root = _orbit_roots(s_rows)
    size = np.bincount(root, minlength=n)[root]
    in_delta = np.zeros(n, dtype=bool)
    for r in np.flatnonzero(root == np.arange(n)).tolist():
        if in_delta[r]:
            continue
        orbit = _Orbit(r, np.arange(n, dtype=dt)[None, :])
        s, j, i = np.asarray(orbit.grow(s_rows, len(s_rows)), dtype=np.intp).reshape(-1, 3).T
        # u_j * s * u_i^-1 fixes x iff s(u_j(x)) = u_i(x)
        same = np.flatnonzero(size == size[r])
        u = orbit.rows[:, same]
        fix = (_gather(s_rows, s, u[j]) == u[i]).all(axis=0)
        if fix.sum() > 1:
            in_delta |= np.isin(root, root[same[fix]])
    if not in_delta.any():
        return True
    order = np.argsort(in_delta, kind="stable")
    label = np.argsort(order).astype(dt)
    chain = _schreier_sims(n, label[group.generator_rows[:, order]], group.order)
    cut = n - int(in_delta.sum())
    k_rows = _transversal_product(chain.transversals[sum(b < cut for b in chain.base):], n)
    # s * k = k * s, compared a block of K's rows at a time
    commute = np.ones(len(k_rows), dtype=bool)
    step = max(1, _INDEX_ELEMENTS // n)
    for s in label[s_rows[:, order]]:
        for lo in range(0, len(k_rows), step):
            k = k_rows[lo:lo + step]
            commute[lo:lo + step] &= (s[k] == k[:, s]).all(axis=1)
    return int(commute.sum()) == 1


class AlmostSimpleSpec:
    """A group X together with a designated socle S: S normal in X,
    nonabelian and perfect, with trivial centralizer in X.  For the
    builtin projective constructions S is the PSL(2,q) subgroup of X.

    The pair is validated on construction from the stabilizer chains of
    X and S alone (membership and normality by sifting, S' and the
    centralizer from further chains), so no element table is built and
    a lattice budget can still refuse X cheaply.  ``socle_indices``, the
    socle inside X's element table, is built on first use.
    """

    def __init__(self, group: PermGroup, socle: PermGroup, name: str | None = None):
        self.group = group
        self.socle = socle
        self.name = name or group.name
        self._socle_ids: frozenset[int] | None = None
        if socle.degree != group.degree:
            raise InvalidParameter(f"socle generators not inside {group.name}")
        s_rows = socle.generator_rows
        if not group.stabilizer_chain.membership()(s_rows).all():
            raise InvalidParameter(f"socle generators not inside {group.name}")
        # S <= X, so |S| divides |X| unless the two chains disagree
        if group.order % socle.order:
            raise InvalidParameter("socle closure does not match socle order")
        # g^-1 s g for every generator g of X and s of S (left factor first)
        x_rows = group.generator_rows
        conjugates = _compose(_compose(_inverse_rows(x_rows)[:, None], s_rows[None]), x_rows[:, None])
        if not socle.stabilizer_chain.membership()(conjugates.reshape(-1, group.degree)).all():
            raise InvalidParameter("socle is not normal in the group")
        if socle.is_abelian:
            raise InvalidParameter("socle must be nonabelian")
        if _derived_order(socle) != socle.order:
            raise InvalidParameter("socle is not perfect")
        if not _centralizer_is_trivial(group, socle):
            raise InvalidParameter("socle has nontrivial centralizer")

    @property
    def socle_indices(self) -> frozenset[int]:
        """Socle element indices inside the group's element table."""
        if self._socle_ids is None:
            gens = [self.group.index_of(g) for g in self.socle.generators]
            self._socle_ids = frozenset(self.group.engine.closure(gens).tolist())
        return self._socle_ids

    @property
    def socle_is_whole_group(self) -> bool:
        return self.socle.order == self.group.order

    def __repr__(self) -> str:
        return f"AlmostSimpleSpec({self.name!r}, socle_order={self.socle.order})"


# ---------------------------------------------------------------------------
# builtin constructors
# ---------------------------------------------------------------------------


def _check_degree(name: str, degree: int) -> None:
    """Refuse a degree above ``DEFAULT_MAX_GROUP_ORDER`` before any
    image list is built."""
    if degree > DEFAULT_MAX_GROUP_ORDER:
        raise ValueError(f"{name}: degree {degree} exceeds {DEFAULT_MAX_GROUP_ORDER}")


def cyclic(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    _check_degree(f"C{n}", n)
    if n == 1:
        return PermGroup(1, [], name="C1")
    images = [(i + 1) % n for i in range(n)]
    return PermGroup(n, [Permutation(images)], name=f"C{n}")


def symmetric(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("symmetric group degree must be >= 1")
    _check_degree(f"S{n}", n)
    if n == 1:
        return PermGroup(1, [], name="S1")
    gens = [Permutation.from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
    return PermGroup(n, gens, name=f"S{n}")


def alternating(n: int) -> PermGroup:
    _check_degree(f"A{n}", n)
    if n < 3:
        return PermGroup(max(n, 1), [], name=f"A{n}")
    gens = [Permutation.from_cycles(n, [(0, 1, 2)])]
    if n > 3:
        long_cycle = tuple(range(n)) if n % 2 == 1 else tuple(range(1, n))
        gens.append(Permutation.from_cycles(n, [long_cycle]))
    return PermGroup(n, gens, name=f"A{n}")


def dihedral(order: int) -> PermGroup:
    """Dihedral group of the given order 2n (n >= 3), acting on n points."""
    if order < 6 or order % 2 != 0:
        raise ValueError("dihedral constructor takes an even order >= 6")
    n = order // 2
    _check_degree(f"D{order}", n)
    rot = Permutation([(i + 1) % n for i in range(n)])
    ref = Permutation([(n - i) % n for i in range(n)])
    return PermGroup(n, [rot, ref], name=f"D{order}")


def klein_four() -> PermGroup:
    a = Permutation.from_cycles(4, [(0, 1)])
    b = Permutation.from_cycles(4, [(2, 3)])
    return PermGroup(4, [a, b], name="C2xC2")


def quaternion8() -> PermGroup:
    # left regular action on [1, -1, i, -i, j, -j, k, -k]
    pi = Permutation([2, 3, 1, 0, 6, 7, 5, 4])
    pj = Permutation([4, 5, 7, 6, 1, 0, 2, 3])
    return PermGroup(8, [pi, pj], name="Q8")


def direct_product(a: PermGroup, b: PermGroup, name: str | None = None) -> PermGroup:
    degree = a.degree + b.degree
    gens: list[Permutation] = []
    for g in a.generators:
        gens.append(Permutation(list(g.images) + list(range(a.degree, degree))))
    for g in b.generators:
        gens.append(Permutation(list(range(a.degree)) + [a.degree + y for y in g.images]))
    return PermGroup(degree, gens, name=name or f"{a.name}x{b.name}")


def _primitive_root(q: int) -> int:
    fac = prime_factors(q - 1)
    for g in range(2, q):
        if all(pow(g, (q - 1) // p, q) != 1 for p in fac):
            return g
    raise RuntimeError(f"no primitive root mod {q}")


def _moebius_transform_perm(q: int, a: int, b: int, c: int, d: int) -> Permutation:
    """Permutation of the projective line (points 0..q-1 and q=infinity)
    induced by x -> (a x + b) / (c x + d) over the q-element field."""
    inf = q
    images = []
    for x in range(q):
        den = (c * x + d) % q
        if den == 0:
            images.append(inf)
        else:
            images.append(((a * x + b) * pow(den, -1, q)) % q)
    images.append(inf if c % q == 0 else (a * pow(c, -1, q)) % q)
    return Permutation(images)


def psl2_order(q: int, variant: str) -> int:
    """|PSL(2,q)| = q(q^2 - 1)/2 and |PGL(2,q)| = q(q^2 - 1), q odd."""
    return q * (q * q - 1) // (2 if variant == "psl" else 1)


def psl2_variant(q: int, variant: str) -> str:
    """The checks of ``make_psl2`` that cost no work, in its order: q is
    an int >= 5 and odd, the variant is 'psl' or 'pgl' (returned in
    lower case), and the closed-form order is within
    ``DEFAULT_MAX_GROUP_ORDER``.  Primality is left to ``make_psl2``, so
    a caller can check a budget against ``psl2_order`` in between."""
    if not isinstance(q, int) or q < 5 or q % 2 == 0:
        raise InvalidParameter(f"q must be an odd prime >= 5, got {q!r}")
    v = variant.lower()
    if v not in ("psl", "pgl"):
        raise InvalidParameter(f"variant must be 'psl' or 'pgl', got {variant!r}")
    if psl2_order(q, v) > DEFAULT_MAX_GROUP_ORDER:
        raise OrderBoundExceeded(f"group order exceeds bound {DEFAULT_MAX_GROUP_ORDER}")
    return v


def make_psl2(q: int, variant: str = "psl") -> AlmostSimpleSpec:
    """PSL(2,q) or PGL(2,q) acting on the q+1 points of the projective
    line, packaged with its PSL socle.

    PSL is generated by the two elementary transvections together with
    a diagonal square; PGL adds a diagonal of non-square determinant.
    Only odd primes q >= 5 are supported.  A group whose closed-form
    order exceeds ``DEFAULT_MAX_GROUP_ORDER`` (PSL for q > 125, PGL for
    q > 99: every prime above 113 and 97) raises ``OrderBoundExceeded``
    before anything is built and before q is tested for primality, so
    such an odd q is refused that way whether or not it is prime.
    """
    v = psl2_variant(q, variant)
    if not is_prime(q):
        raise InvalidParameter(f"q must be an odd prime >= 5, got {q!r}")
    g = _primitive_root(q)
    transvection_upper = _moebius_transform_perm(q, 1, 1, 0, 1)
    transvection_lower = _moebius_transform_perm(q, 1, 0, 1, 1)
    diag_square = _moebius_transform_perm(q, g, 0, 0, pow(g, -1, q))
    psl_gens = [transvection_upper, transvection_lower, diag_square]
    socle = PermGroup(q + 1, psl_gens, name=f"PSL(2,{q})")
    expected_psl = psl2_order(q, "psl")
    if socle.order != expected_psl:
        raise RuntimeError(f"PSL(2,{q}) closure has order {socle.order}, want {expected_psl}")
    if v == "psl":
        return AlmostSimpleSpec(socle, socle, name=f"PSL(2,{q})")
    diag_nonsquare = _moebius_transform_perm(q, g, 0, 0, 1)
    group = PermGroup(q + 1, psl_gens + [diag_nonsquare], name=f"PGL(2,{q})")
    expected_pgl = psl2_order(q, "pgl")
    if group.order != expected_pgl:
        raise RuntimeError(f"PGL(2,{q}) closure has order {group.order}, want {expected_pgl}")
    return AlmostSimpleSpec(group, socle, name=f"PGL(2,{q})")


_PSL_RE = re.compile(r"^(PSL|PGL)\(2,\s*(\d+)\)$|^(PSL|PGL)2[_-](\d+)$", re.IGNORECASE)


def builtin_group(name: str, p: int | None = None) -> PermGroup:
    """Resolve a builtin group name: ``S4``, ``A5``, ``C7``, ``D8``
    (dihedral, by group order), ``Q8``, ``C2xC2``, ``PSL(2,7)`` /
    ``PSL2_7``, direct products like ``A5xC2``, and ``Cp`` with an
    explicit prime parameter.  A degree above ``DEFAULT_MAX_GROUP_ORDER``
    is rejected before any permutation is built."""
    factors = [_builtin_factor(part, p) for part in name.split("x")]
    if None in factors:
        raise ValueError(f"unknown builtin group {name!r}")
    degree = sum(d for d, _ in factors)
    if degree > DEFAULT_MAX_GROUP_ORDER:
        raise ValueError(f"builtin {name!r}: degree {degree} exceeds {DEFAULT_MAX_GROUP_ORDER}")
    grp = factors[0][1]()
    for _, build in factors[1:]:
        grp = direct_product(grp, build())
    return grp


def _builtin_factor(name: str, p: int | None) -> tuple[int, Callable[[], PermGroup]] | None:
    """The degree of the builtin group ``name`` (not a product) and a
    function that builds it, or None for an unknown name."""
    s = name.strip()
    if s in ("Cp", "Cn"):
        if p is None:
            raise ValueError(f"builtin {s} needs the order parameter p")
        return p, lambda: cyclic(p)
    m = _PSL_RE.match(s)
    if m:
        q = int(m.group(2) or m.group(4))
        kind = psl2_variant(q, m.group(1) or m.group(3))  # the checks that build nothing
        return q + 1, lambda: make_psl2(q, kind).group
    if s == "Q8":
        return 8, quaternion8
    m = re.fullmatch(r"([SACD])(\d+)", s)
    if m:
        n = int(m.group(2))
        if m.group(1) == "D":
            return (4, klein_four) if n == 4 else (n // 2, lambda: dihedral(n))
        build = {"S": symmetric, "A": alternating, "C": cyclic}[m.group(1)]
        return max(n, 1), lambda: build(n)
    return None


# ---------------------------------------------------------------------------
# group file format
# ---------------------------------------------------------------------------


def parse_group_file(text: str) -> PermGroup:
    """Parse the text group format: a ``degree <d>`` line followed by
    one generator per line in disjoint-cycle notation over 0-based
    points.  Lines starting with ``#`` are comments.  A degree above
    ``DEFAULT_MAX_GROUP_ORDER`` is rejected before any row is built."""
    degree = None
    gens: list[Permutation] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if degree is None:
            m = re.fullmatch(r"degree\s+(\d+)", line)
            if not m:
                raise ValueError(f"line {ln}: expected 'degree <d>', got {line!r}")
            degree = int(m.group(1))
            if degree < 1:
                raise ValueError(f"line {ln}: degree must be >= 1")
            # every generator is a row of this many points
            if degree > DEFAULT_MAX_GROUP_ORDER:
                raise ValueError(
                    f"line {ln}: degree {degree} exceeds {DEFAULT_MAX_GROUP_ORDER}"
                )
            continue
        gens.append(Permutation.parse(line, degree))
    if degree is None:
        raise ValueError("group file has no 'degree <d>' line")
    return PermGroup(degree, gens, name="file-group")


def format_group_file(group: PermGroup, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"degree {group.degree}")
    for g in group.generators:
        lines.append(g.cycle_string())
    return "\n".join(lines) + "\n"
