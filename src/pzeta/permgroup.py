"""Finite permutation groups on points ``{0, ..., degree-1}``.

The public surface is :class:`Permutation`, :class:`PermGroup`,
:class:`StabilizerChain`, :class:`AlmostSimpleSpec` and the builtin
constructors.

A :class:`PermGroup` first computes, once, a stabilizer chain by
deterministic Schreier-Sims: a base (points whose images determine an
element) and one transversal per base point.  The group order is the
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

import re
from math import gcd, prod
from typing import Iterable, NamedTuple, Sequence

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


class StabilizerChain(NamedTuple):
    """A base and strong generating set in its plain form: ``base``
    lists b_0 < b_1 < ..., where b_j is the smallest point moved by the
    pointwise stabilizer G_j of b_0..b_{j-1}, and ``transversals[j]``
    holds one image row u of G_j for each point of the orbit of b_j,
    with u(b_j) running over that orbit.  Every element is uniquely a
    product u_{k-1} * ... * u_1 * u_0 with u_j in ``transversals[j]``,
    so ``order`` is the product of the transversal sizes."""

    base: tuple[int, ...]
    transversals: tuple[tuple[tuple[int, ...], ...], ...]
    order: int

    def membership(self):
        """A test whether an image row of this degree is an element: it
        sifts to the identity through the chain."""
        keyed = [{u[b]: u for u in t} for b, t in zip(self.base, self.transversals)]
        sift = _sifter(self.base, keyed)
        return lambda g: sift(tuple(g))[0] == tuple(range(len(g)))


def _sifter(points: Sequence[int], trans: Sequence[dict[int, tuple[int, ...]]]):
    """``sift(g, first)`` strips g, which fixes the base points before
    level ``first``, through the chain with base ``points`` and rows
    ``trans[l]`` keyed by their image of ``points[l]`` (rows may be
    added, never changed).  It returns the residue, the identity iff g
    is in the group, and the level where it stopped (or the depth)."""
    depth = len(points)
    inv: list[dict[int, tuple[int, ...]]] = [{} for _ in points]

    def sift(g: tuple[int, ...], first: int = 0) -> tuple[tuple[int, ...], int]:
        for lev in range(first, depth):
            b = points[lev]
            beta = g[b]
            if beta != b:
                u = trans[lev].get(beta)
                if u is None:
                    return g, lev
                w = inv[lev].get(beta)
                if w is None:
                    # the points sorted by their images: x lands at position u(x)
                    w = inv[lev][beta] = tuple(sorted(range(len(u)), key=u.__getitem__))
                g = tuple(map(w.__getitem__, g))
        return g, depth

    return sift


def _schreier_sims(
    degree: int,
    gen_images: Iterable[Sequence[int]],
    max_order: int,
    stop_at: int | None = None,
) -> StabilizerChain:
    """Deterministic Schreier-Sims (Butler 1991, Seress 2003) over every
    moved point in ascending order.  That sequence is a base, and the
    points whose level has a nontrivial orbit are exactly the b_j of
    :class:`StabilizerChain`.

    Levels are completed from the bottom up: level l is complete when
    every Schreier generator u_beta * s * u_{s(beta)}^-1 (beta in the
    orbit, s a strong generator fixing the points before b_l) sifts
    through the levels below it.  A residue that does not sift becomes
    a strong generator of the levels down to where it stopped, and work
    resumes there.  Each pair (beta, s) is met once, when the orbit or
    the generators grow: a tree edge gives the row u_{s(beta)} = u_beta
    * s, a pair with u_beta * s = u_{s(beta)} gives the identity, the
    pair (b_l, s) with s fixing b_l gives s, a strong generator of the
    next level, and only the other pairs are queued for sifting.  Orbits
    only grow and keep their rows, so a Schreier generator that sifted
    once is never sifted again.

    The product of the orbit sizes never exceeds the group order, so
    the routine raises ``OrderBoundExceeded`` as soon as it passes
    ``max_order``, before any further work.  For a group known to lie in
    one of order ``stop_at``, it returns as soon as the product reaches
    ``stop_at``: the two groups are then equal, each orbit is a whole
    basic orbit, and the chain is already complete."""
    ident = tuple(range(degree))
    gens = list(dict.fromkeys(g for g in map(tuple, gen_images) if g != ident))
    points = sorted({x for g in gens for x, y in enumerate(g) if x != y})
    depth = len(points)
    strong: list[list[tuple[int, ...]]] = [[] for _ in points]
    trans = [{b: ident} for b in points]
    sift = _sifter(points, trans)
    # Schreier generators not yet known to sift, as u_beta * s: sifted from
    # their level, they first lose u_{s(beta)}
    pending: list[list[tuple[int, ...]]] = [[] for _ in points]

    def add_generator(h: tuple[int, ...], first: int, last: int) -> bool:
        """Make h a strong generator of levels first..last and extend
        their orbits; h fixes the base points before ``first``.  Whether
        the orbit sizes now multiply to ``stop_at``."""
        for lev in range(first, last + 1):
            gens_l, u, todo = strong[lev], trans[lev], pending[lev]
            gens_l.append(h)
            b = points[lev]
            # h on the old points, then every generator on the new ones
            pairs = [(beta, h) for beta in u]
            for beta, s in pairs:
                gamma = s[beta]
                us = tuple(map(s.__getitem__, u[beta]))
                if gamma not in u:
                    u[gamma] = us
                    pairs += [(gamma, t) for t in gens_l]
                elif us != u[gamma] and not beta == gamma == b:
                    todo.append(us)
        size = prod(map(len, trans))
        if size > max_order:
            raise OrderBoundExceeded(f"group order exceeds bound {max_order}")
        return size == stop_at

    def residue(lev: int) -> tuple[tuple[int, ...], int] | None:
        """The first pending Schreier generator of level ``lev`` that
        does not sift, stripped as far as it goes, and its level; or None."""
        todo = pending[lev]
        while todo:
            left = sift(todo[-1], lev)
            if left[1] < depth:
                return left
            todo.pop()
        return None

    full = any(add_generator(g, 0, next(lev for lev, b in enumerate(points) if g[b] != b))
               for g in gens)
    lev = depth - 1
    while lev >= 0 and not full:
        left = residue(lev)
        if left is None:
            lev -= 1
        else:
            h, stop = left
            full = add_generator(h, lev + 1, stop)
            lev = stop
    levels = [lev for lev, u in enumerate(trans) if len(u) > 1]
    return StabilizerChain(
        tuple(points[lev] for lev in levels),
        tuple(tuple(trans[lev].values()) for lev in levels),
        prod(len(trans[lev]) for lev in levels),
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
        self._orders: np.ndarray | None = None
        self._pp_reps: tuple[int, ...] | None = None

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
        return int(self._lookup(self.rows[j][self._base_rows[i]]))

    def conj_elem(self, x: int, g: int) -> int:
        """Index of g^-1 * x * g."""
        return int(self._column("conj", g)[x])

    def commutator(self, a: int, b: int) -> int:
        return self.mul(self.mul(self.inv[a], self.inv[b]), self.mul(a, b))

    def permutation(self, i: int) -> Permutation:
        return Permutation(self.rows[i].tolist())

    # -- batched ops ----------------------------------------------------

    def mul_batch(self, ids: np.ndarray, g: int) -> np.ndarray:
        """Indices of "apply i, then g" for each i in ids."""
        return self._lookup(self.rows[g][self._base_rows[ids]])

    def conj_set(self, ids: np.ndarray, g: int) -> np.ndarray:
        """Indices of g^-1 * i * g for each i in ids."""
        return self._column("conj", g)[ids]

    def commutators_with(self, n: int) -> np.ndarray:
        """Index of the commutator [n, x] = n^-1 * x^-1 * n * x for every
        element x."""
        pts = self.rows[self.inv[n]][self._base_pts]
        imgs = self.rows[n][self.rows[self.inv[:, None], pts]]
        return self._lookup(np.take_along_axis(self.rows, imgs.astype(np.intp), axis=1))

    def commutes_into(self, gens: Iterable[int], member: np.ndarray) -> np.ndarray:
        """Boolean mask of the elements x with [g, x] in ``member`` (a
        boolean mask over the elements) for every g in ``gens``."""
        mask = np.ones(self.order, dtype=bool)
        for g in gens:
            mask &= member[self.commutators_with(g)]
        return mask

    def closure(self, gen_idx: Iterable[int], bail_half: bool = False):
        """Sorted element indices of the subgroup generated by gen_idx.

        With ``bail_half=True`` returns None as soon as the subgroup is
        known to be the whole group (more than half the elements seen),
        which is the common case during lattice extension.
        """
        gens = [int(g) for g in dict.fromkeys(gen_idx) if g != self.id_idx]
        if not gens:
            return np.asarray([self.id_idx], dtype=np.int64)
        cols = [self._column("mul", g) for g in gens]
        member = np.zeros(self.order, dtype=bool)
        member[self.id_idx] = True
        count = 1
        half = self.order // 2
        frontier = np.asarray([self.id_idx])
        while frontier.size:
            new = []
            for col in cols:
                # right multiplication is a bijection and member is
                # updated per generator, so ix holds no duplicates
                ix = col[frontier].astype(np.intp)
                ix = ix[~member[ix]]
                member[ix] = True
                count += ix.size
                new.append(ix)
                if bail_half and count > half:
                    return None
            frontier = np.concatenate(new)
        return np.flatnonzero(member)

    def orbit_minima(
        self, ids: np.ndarray, right: Sequence[int], conj: Sequence[int]
    ) -> np.ndarray:
        """The elements of ``ids`` (ascending indices) that are the least
        of ``ids`` in their orbit under the group generated by the maps
        x -> x*r (r in ``right``) and x -> c^-1*x*c (c in ``conj``).

        Min-label propagation over ranks that put ``ids`` first: rank x
        for x in ids, order + x for any other x.  Each label is the rank
        of an element in the same orbit and never grows.  A pass takes,
        along every map, the smaller of a label and the label of the
        image, then jumps pointers once (each label becomes the label of
        the element it ranks); a pass that changes nothing leaves the
        least rank of every orbit on all of it, and x in ids is least of
        ids in its orbit when its label is x."""
        n = self.order
        maps = [self._column("mul", r) for r in right]
        maps += [self._column("conj", c) for c in conj]
        labels = np.arange(n, 2 * n)
        labels[ids] = ids
        while True:
            new = labels
            for col in maps:
                new = np.minimum(new, new.take(col))
            new = new.take(new, mode="wrap")  # the element of rank r is r mod n
            if (new == labels).all():
                return ids[labels[ids] == ids]
            labels = new

    # -- element statistics ---------------------------------------------

    def _base_powers(self, ids: np.ndarray):
        """Yield (m, base images of i^m for each i in ids), m = 1, 2, ..."""
        pts = self._base_rows[ids]
        col = np.asarray(ids)[:, None]
        m = 1
        while True:
            yield m, pts
            pts = self.rows[col, pts]
            m += 1

    def _cyclic_structure(self) -> None:
        """Element orders, and one generator per cyclic subgroup of
        prime-power order, from one walk over the powers of every element.

        The generators of <i> are its powers i^m with gcd(m, |i|) = 1.
        When |i| is a power of p, those are the i^m with p not dividing m
        over any |i| consecutive exponents, so a running minimum per
        prime p finds the smallest index among them; that element
        represents the subgroup."""
        ids = np.arange(self.order)
        orders = np.zeros(self.order, dtype=np.int64)
        primes = prime_factors(self.order)
        low = {p: ids.copy() for p in primes}
        for m, pts in self._base_powers(ids):
            idx = self._lookup(pts)
            orders[(orders == 0) & (idx == self.id_idx)] = m
            if orders.all():
                break
            for p in primes:
                if m % p:
                    np.minimum(low[p], idx, out=low[p])
        reps = np.zeros(self.order, dtype=bool)
        for p in primes:
            p_power = np.zeros(int(orders.max()) + 1, dtype=bool)
            p_power[[o for o in set(orders.tolist()) if prime_factors(o) == (p,)]] = True
            reps |= p_power[orders] & (low[p] == ids)
        self._orders = orders
        self._pp_reps = tuple(np.flatnonzero(reps).tolist())

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            self._cyclic_structure()
        return self._orders

    def pp_cyclic_generator_reps(self) -> tuple[int, ...]:
        """One generator per distinct cyclic subgroup of prime-power
        order, ascending: the smallest index among the generators of
        that subgroup.  Lattice enumeration draws its extension
        candidates from these, since every cover H of a subgroup K is
        generated by K and any generator of one of them (lattice.py
        tries only one per orbit of K's double cosets under its
        normalizer)."""
        if self._pp_reps is None:
            self._cyclic_structure()
        return self._pp_reps

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
        normalizer is read from one mask, the x with [g, x] in P for
        every generator g of P (``commutes_into``).
        """
        target = 1
        n = self.order
        while n % 2 == 0:
            target *= 2
            n //= 2
        if target == 1:
            return (self.id_idx,), ()
        orders = self.element_orders()
        two_power = (orders & (orders - 1)) == 0
        two_power[self.id_idx] = False
        best = int(orders[two_power].max())
        seed = int(np.argmax(two_power & (orders == best)))
        gens = [seed]
        arr = self.closure(gens)
        while len(arr) < target:
            member = np.zeros(self.order, dtype=bool)
            member[arr] = True
            candidates = two_power & self.commutes_into(gens, member) & ~member
            if not candidates.any():
                raise RuntimeError("Sylow 2-subgroup growth stalled")
            gens.append(int(np.argmax(candidates)))
            arr = self.closure(gens)
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
            coset[self.mul_batch(narr, x)] = cid
        degree = len(reps)
        reps_arr = np.asarray(reps, dtype=np.int64)

        def image_of(e: int) -> list[int]:
            return coset[self.mul_batch(reps_arr, e)].tolist()

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
        self._chain: StabilizerChain | None = None
        self._eng: _Engine | None = None
        self._lattice = None

    # -- element access --------------------------------------------------

    @property
    def stabilizer_chain(self) -> StabilizerChain:
        """Base and transversals, computed once; raises
        ``OrderBoundExceeded`` for a group above ``max_order``."""
        if self._chain is None:
            self._chain = _schreier_sims(
                self.degree, (g.images for g in self.generators), self.max_order
            )
        return self._chain

    @property
    def engine(self) -> _Engine:
        if self._eng is None:
            self._eng = _Engine(
                self.degree, [g.images for g in self.generators], self.stabilizer_chain
            )
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

    @property
    def is_trivial(self) -> bool:
        return all(g.is_identity for g in self.generators)

    def subgroup_lattice(self, budget=None):
        """Complete subgroup lattice (see :mod:`pzeta.lattice`).

        The first successful computation is cached; the lattice itself
        does not depend on the budget used to obtain it.
        """
        if self._lattice is None:
            from .lattice import subgroup_lattice

            self._lattice = subgroup_lattice(self, budget)
        return self._lattice

    def __repr__(self) -> str:
        return f"PermGroup({self.name!r}, degree={self.degree}, gens={len(self.generators)})"


def _derived_order(group: PermGroup) -> int:
    """|G'|, from stabilizer chains: G' is the normal closure in G of
    the commutators of G's generators.  Each round adds, as generators,
    the conjugates by G's generators of the last round's new generators
    that do not sift through the chain of the generators so far.  G' <= G,
    so a chain whose orbit sizes multiply to |G| stops there: G' = G."""
    gens = [np.asarray(g.images) for g in group.generators]
    inv = [np.argsort(g) for g in gens]
    # image rows of [a, b] = a^-1 b^-1 a b and of g^-1 h g (left factor first)
    new = [tuple(b[a[ib[ia]]].tolist())
           for i, (a, ia) in enumerate(zip(gens, inv)) for b, ib in zip(gens[:i], inv[:i])]
    seeds: list[tuple[int, ...]] = []
    while True:
        seeds += new
        chain = _schreier_sims(group.degree, seeds, group.order, stop_at=group.order)
        if chain.order == group.order:
            return chain.order
        member = chain.membership()
        conjugates = (tuple(g[np.asarray(h)[ig]].tolist())
                      for h in new for g, ig in zip(gens, inv))
        new = [c for c in dict.fromkeys(conjugates) if not member(c)]
        if not new:
            return chain.order


def _centralizer_is_trivial(group: PermGroup, socle: PermGroup) -> bool:
    """Whether C_X(S) = 1 for S <= X on the same points, from chains.

    C_X(S) keeps S-stabilizers, so it fixes each point outside Delta,
    the points beta with S_beta = S_gamma for some gamma != beta, and
    C_X(S) = C_K(S) for K the pointwise stabilizer of those points.  An
    S-orbit O with first point r lies in Delta, with the orbit of every
    such gamma, when Fix(S_r) (fixed by every Schreier generator) holds
    another point whose orbit has |O| points; only those points are
    tested.  K is the tail of a chain of X relabelled with Delta last."""
    n = group.degree
    dt = _dtype_for(n)
    images = [g.images for g in socle.generators]
    s_rows = [np.asarray(img, dtype=dt) for img in images]
    orbit_of = [-1] * n
    orbits: list[list[int]] = []
    for r in range(n):
        if orbit_of[r] < 0:
            orbit_of[r] = len(orbits)
            orbits.append([r])
            for beta in orbits[-1]:  # grows as the loop runs
                for img in images:
                    if orbit_of[img[beta]] < 0:
                        orbit_of[img[beta]] = len(orbits) - 1
                        orbits[-1].append(img[beta])
    orbit_of = np.asarray(orbit_of)
    size = np.asarray([len(orbit) for orbit in orbits])[orbit_of]
    in_delta = np.zeros(len(orbits), dtype=bool)
    for i, orbit in enumerate(orbits):
        if in_delta[i]:
            continue
        # row j: the images, under some u with u(r) = orbit[j], of the points
        # whose orbit has |O| points (u runs along the orbit's BFS tree)
        where = {beta: j for j, beta in enumerate(orbit)}
        rows = [np.flatnonzero(size == len(orbit)).astype(dt)] + [None] * (len(orbit) - 1)
        for beta in orbit:
            for img, s in zip(images, s_rows):
                if rows[where[img[beta]]] is None:
                    rows[where[img[beta]]] = s[rows[where[beta]]]
        table = np.stack(rows)
        fix = np.ones(table.shape[1], dtype=bool)
        for img, s in zip(images, s_rows):
            # u_beta * s * u_{s(beta)}^-1 fixes x iff s(u_beta(x)) = u_{s(beta)}(x)
            fix &= (s[table] == table[[where[img[b]] for b in orbit]]).all(axis=0)
        if fix.sum() > 1:
            in_delta[orbit_of[rows[0][fix]]] = True
    delta = np.flatnonzero(in_delta[orbit_of]).tolist()
    if not delta:
        return True
    order = np.argsort(np.isin(np.arange(n), delta), kind="stable")
    label = np.argsort(order).astype(dt)

    def relabel(g: Permutation) -> np.ndarray:
        return label[np.asarray(g.images)[order]]

    chain = _schreier_sims(n, (relabel(g).tolist() for g in group.generators), group.order)
    cut = n - len(delta)
    k_rows = _transversal_product(chain.transversals[sum(b < cut for b in chain.base):], n)
    commute = np.ones(len(k_rows), dtype=bool)
    for s in map(relabel, socle.generators):
        commute &= (s[k_rows] == k_rows[:, s]).all(axis=1)
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
        in_group = group.stabilizer_chain.membership()
        if socle.degree != group.degree or not all(in_group(s.images) for s in socle.generators):
            raise InvalidParameter(f"socle generators not inside {group.name}")
        # S <= X, so |S| divides |X| unless the two chains disagree
        if group.order % socle.order:
            raise InvalidParameter("socle closure does not match socle order")
        in_socle = socle.stabilizer_chain.membership()
        x_rows = [np.asarray(g.images) for g in group.generators]
        s_rows = [np.asarray(s.images) for s in socle.generators]
        conjugates = (g[s[np.argsort(g)]] for g in x_rows for s in s_rows)
        if not all(in_socle(c.tolist()) for c in conjugates):
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


def cyclic(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    if n == 1:
        return PermGroup(1, [], name="C1")
    images = [(i + 1) % n for i in range(n)]
    return PermGroup(n, [Permutation(images)], name=f"C{n}")


def symmetric(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("symmetric group degree must be >= 1")
    if n == 1:
        return PermGroup(1, [], name="S1")
    gens = [Permutation.from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
    return PermGroup(n, gens, name=f"S{n}")


def alternating(n: int) -> PermGroup:
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


def make_psl2(q: int, variant: str = "psl") -> AlmostSimpleSpec:
    """PSL(2,q) or PGL(2,q) acting on the q+1 points of the projective
    line, packaged with its PSL socle.

    PSL is generated by the two elementary transvections together with
    a diagonal square; PGL adds a diagonal of non-square determinant.
    Only odd primes q >= 5 are supported.
    """
    if not isinstance(q, int) or q < 5 or q % 2 == 0 or not is_prime(q):
        raise InvalidParameter(f"q must be an odd prime >= 5, got {q!r}")
    v = variant.lower()
    if v not in ("psl", "pgl"):
        raise InvalidParameter(f"variant must be 'psl' or 'pgl', got {variant!r}")
    g = _primitive_root(q)
    transvection_upper = _moebius_transform_perm(q, 1, 1, 0, 1)
    transvection_lower = _moebius_transform_perm(q, 1, 0, 1, 1)
    diag_square = _moebius_transform_perm(q, g, 0, 0, pow(g, -1, q))
    psl_gens = [transvection_upper, transvection_lower, diag_square]
    socle = PermGroup(q + 1, psl_gens, name=f"PSL(2,{q})")
    expected_psl = q * (q * q - 1) // 2
    if socle.order != expected_psl:
        raise RuntimeError(f"PSL(2,{q}) closure has order {socle.order}, want {expected_psl}")
    if v == "psl":
        return AlmostSimpleSpec(socle, socle, name=f"PSL(2,{q})")
    diag_nonsquare = _moebius_transform_perm(q, g, 0, 0, 1)
    group = PermGroup(q + 1, psl_gens + [diag_nonsquare], name=f"PGL(2,{q})")
    if group.order != 2 * expected_psl:
        raise RuntimeError(f"PGL(2,{q}) closure has order {group.order}, want {2 * expected_psl}")
    return AlmostSimpleSpec(group, socle, name=f"PGL(2,{q})")


_PSL_RE = re.compile(r"^(PSL|PGL)\(2,\s*(\d+)\)$|^(PSL|PGL)2[_-](\d+)$", re.IGNORECASE)


def builtin_group(name: str, p: int | None = None) -> PermGroup:
    """Resolve a builtin group name: ``S4``, ``A5``, ``C7``, ``D8``
    (dihedral, by group order), ``Q8``, ``C2xC2``, ``PSL(2,7)`` /
    ``PSL2_7``, direct products like ``A5xC2``, and ``Cp`` with an
    explicit prime parameter."""
    s = name.strip()
    if s in ("Cp", "Cn"):
        if p is None:
            raise ValueError(f"builtin {s} needs the order parameter p")
        return cyclic(p)
    m = _PSL_RE.match(s)
    if m:
        kind = (m.group(1) or m.group(3)).lower()
        q = int(m.group(2) or m.group(4))
        return make_psl2(q, kind).group
    if "x" in s:
        parts = s.split("x")
        grp = builtin_group(parts[0], p)
        for part in parts[1:]:
            grp = direct_product(grp, builtin_group(part, p))
        return grp
    m = re.fullmatch(r"S(\d+)", s)
    if m:
        return symmetric(int(m.group(1)))
    m = re.fullmatch(r"A(\d+)", s)
    if m:
        return alternating(int(m.group(1)))
    m = re.fullmatch(r"C(\d+)", s)
    if m:
        return cyclic(int(m.group(1)))
    if s == "Q8":
        return quaternion8()
    m = re.fullmatch(r"D(\d+)", s)
    if m:
        order = int(m.group(1))
        return klein_four() if order == 4 else dihedral(order)
    raise ValueError(f"unknown builtin group {name!r}")


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
