"""Subgroup lattices of finite permutation groups.

Enumeration strategy (cyclic extension, Neubuser 1960, reduced modulo
double cosets and normalizers as in Cannon, Cox & Holt, "Computing the
subgroup lattice of a permutation group", J. Symbolic Comput. 2001):
grow the set of conjugacy-class representatives by extending each known
subgroup K with one extra element.  Every cover H of K (K maximal in H)
is <K, f> for some f of order p^a outside K with f^p in K: H is
generated by its prime-power elements, so some e of order p^a lies in
H outside K, and f can be the last of e, e^p, e^(p^2), ... outside K.
Any generator c of <f> can stand for f, and c^p lies in K as well, so
only candidates c with c^p in K are tried.  Two candidates need not
both be tried when one lies in the orbit of the other under the group
generated by x -> k1*x*k2 (k1, k2 in K), x -> n^-1*x*n (n in N_G(K))
and the power maps x -> x^j(|x|), j(n) a unit mod n:

* <K, k1*e*k2> = <K, e>;
* <K, e^n> = <K, e>^n, a conjugate, and every new class is expanded
  into its full conjugacy orbit when it is found;
* <K, e^j> = <K, e>, as e^j generates <e>.  So candidates stand for
  cyclic subgroups rather than elements: conjugate cyclic subgroups
  whose least generators lie in different element classes share an
  orbit.

So K is extended by one prime-power cyclic generator per orbit that
meets the candidates c outside K with c^p in K, the least one, and the
final node list contains every subgroup exactly once.  K's normalizer
costs nothing when K is normal (G's generators) or self-normalizing
(K's own), since its order is |G| divided by the size of K's class;
otherwise its generators are drawn from the Schreier generators of the
tree that found K's class (Schreier's lemma).

One poset type serves the full lattice and the overgroup family: the
walk is the constructor of ``_NodePoset``, which starts from a seed
subgroup and lists every conjugate of every overgroup of the seed.
Seeded with the trivial subgroup it is the full lattice
(``SubgroupLattice``); seeded with a Sylow 2-subgroup
(``overgroups_of_seed``) it is exactly the subgroups of odd index,
whole conjugacy classes, which is what the minimal-odd-index
computations need; groups of order a few thousand stay tractable that
way even when their full lattice would not be.

Quotients are not enumerated separately: for a normal subgroup N the
lattice of G/N is the interval [N, G] of G's own lattice, with the same
Moebius values, and ``zeta.interval_zeta`` sums it by conjugacy class.

Node ids ascend by subgroup order.  Every poset query (Moebius values,
maximality, Hasse covers, intervals, chief series) reads one cached row
per node, the ascending ids of its proper overgroups
(``_NodePoset._overgroups``).  Conjugation by a group generator
permutes the nodes and preserves inclusion, so rows and Hasse covers
are computed once per class, for the root of the walk's tree of that
class, and relabelled along the tree to the other members.  The chief
series walk one map of normal covers, read once per lattice off the
normal nodes' rows.
"""

from __future__ import annotations

import heapq
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import BudgetExceeded, NotNormal, OrderBoundExceeded
from .numtheory import integer_nth_root, prime_factors
from .permgroup import PermGroup, Permutation, _Engine, _orbit_roots


@dataclass(frozen=True)
class Budget:
    """Resource limits for lattice-scale computations.

    ``max_order`` bounds the order of any group whose lattice (or
    odd-index sublattice) may be enumerated; ``max_subgroups`` bounds
    the number of subgroups stored; ``time_hint_s`` is a soft wall-clock
    limit checked between extension steps.
    """

    max_order: int = 10_000
    max_subgroups: int = 20_000
    time_hint_s: float | None = None

    def check_order(self, order: int) -> None:
        """Refuse, before any enumeration, a group above ``max_order``."""
        if order > self.max_order:
            raise OrderBoundExceeded(
                f"order {order} exceeds lattice budget {self.max_order}"
            )


DEFAULT_BUDGET = Budget()


class _Tracker:
    def __init__(self, budget: Budget):
        self.budget = budget
        self.start = time.monotonic()
        self.subgroups = 0
        self.classes = 0
        # closures by purpose: extending a class by a candidate, growing
        # a normalizer
        self.closures = {"candidate": 0, "normalizer": 0}

    def stats(self) -> dict:
        return {
            "subgroups": self.subgroups,
            "classes": self.classes,
            "closures": dict(self.closures),
            "elapsed_s": round(time.monotonic() - self.start, 3),
        }

    def check(self):
        if self.subgroups > self.budget.max_subgroups:
            raise BudgetExceeded(
                f"more than {self.budget.max_subgroups} subgroups", self.stats()
            )
        hint = self.budget.time_hint_s
        if hint is not None and time.monotonic() - self.start > hint:
            raise BudgetExceeded(f"time hint {hint}s exceeded", self.stats())


def _conjugators(
    engine: _Engine,
    tracker: _Tracker,
    kgens: tuple[int, ...],
    k_ids: np.ndarray,
    in_k: np.ndarray,
    n_size: int,
    schreier: Callable[[], np.ndarray],
) -> tuple[int, ...]:
    """Elements whose conjugations, together with x -> x*k (k in K),
    generate a group whose orbits are the N_G(K)-orbits of the double
    cosets KxK; ``n_size`` = |N_G(K)| is read off the class size of K.

    * K normal: KxK = xK, and conjugation by an element of K keeps each
      coset, so G's generators outside K suffice.
    * Otherwise K's own generators (conjugation by k, then x -> x*k, is
      x -> k^-1*x), and, unless K is self-normalizing, generators of
      N_G(K) picked from its Schreier generators (``schreier()``, made
      only here): the first one outside the closure so far (so none
      lies in K), until that closure has the known order; each closure
      resumes from the one before."""
    if n_size == engine.order:
        return tuple(g for g in engine.gen_indices if not in_k[g])
    if n_size == len(k_ids):
        return kgens
    gens, member, closed = kgens, in_k, k_ids
    pool = schreier()
    while True:
        gens += (int(pool[np.argmax(~member[pool])]),)
        tracker.closures["normalizer"] += 1
        closed = engine.closure(gens, known=closed)
        if len(closed) == n_size:
            return gens
        member = np.zeros(engine.order, dtype=bool)
        member[closed] = True


def _schreier_generators(
    engine: _Engine,
    mul_table: np.ndarray,
    images: np.ndarray,
    parent: np.ndarray,
    via: np.ndarray,
    ends: Sequence[int],
) -> np.ndarray:
    """Schreier generators of N_G(K), the stabilizer of K in G's
    conjugation action on K's class (Seress, *Permutation Group
    Algorithms*, 2003, ch. 4), from the class's own search tree.

    Member u of the class (local ids, K = 0) was found as
    ``parent[u]`` conjugated by G-generator ``via[u]``, one
    breadth-first layer ``ends[i]:ends[i + 1]`` at a time, and
    ``images[k, u]`` is u conjugated by G-generator k.  So the
    transversal t_u, with K^(t_u) = u, is t_parent * g_via, one gather
    of ``mul_table`` (G-generators' ``mul`` columns) per layer, and each
    edge (u, k) -> v that is not a tree edge gives the generator
    t_u * g_k * t_v^-1, which maps K to itself."""
    t = np.empty(ends[-1], dtype=np.int64)
    t[0] = engine.id_idx
    for a, b in zip(ends, ends[1:]):
        t[a:b] = mul_table[via[a:b], t[parent[a:b]]]
    tree = np.zeros(images.shape, dtype=bool)
    tree[via[1:], parent[1:]] = True
    k, u = np.nonzero(~tree)
    return engine.mul_pairs(mul_table[k, t[u]], engine.inv[t[images[k, u]]])


class _NodePoset:
    """Every conjugate of every overgroup of a seed subgroup, in the
    canonical node order (by subgroup order, then by element tuple; the
    whole group last), with the cached containment rows that every
    poset query reads.

    The constructor is the walk of the module docstring.  Classes are
    extended smallest first (the seed's class grows upward, orbits fill
    sideways), a representative K by the least prime-power cyclic
    generator c (``pp_cyclic_generator_reps``) outside K with c^p in K
    (``pp_rep_pth_powers``) in each orbit of x -> x*k (k in K),
    conjugation by N_G(K) and the engine's power maps; conjugation by
    a central element is the identity map, so central elements are
    dropped from those conjugations.  A new subgroup is registered with
    its whole conjugacy class, one breadth-first layer of conjugates at
    a time, and each new member records the tree edge that found it:
    its parent and the G-generator.  N_G(K), when it is needed, comes from
    that tree (``_schreier_generators``).  ``classes`` hold ascending
    node ids and are ordered by their smallest id.  The walk keys a
    subgroup by its sorted element tuple; the frozensets ``_fs`` that
    containment reads are built once per node, after the walk.

    Conjugation by a group generator is an automorphism of the poset,
    and ``_perms[k]`` is its action on node ids.  So a row is scanned
    only for a class's root ``_roots[c]``, the member the walk found
    first.  Every other node has a parent (p, k) in the same tree, with
    node = node p conjugated by generator k, and its row is p's row
    relabelled by ``_perms[k]``: most queries read roots' rows only.

    ``stats`` holds the walk's counts: subgroups, classes, closures by
    purpose (``candidate`` extensions and ``normalizer`` growth) and
    elapsed seconds, plus the overgroup ``rows`` scanned and relabelled
    so far."""

    def __init__(
        self,
        engine: _Engine,
        budget: Budget,
        seed: Sequence[int],
        seed_gens: Sequence[int],
    ):
        order = engine.order
        tracker = _Tracker(budget)

        nodes: list[tuple[int, ...]] = []
        node_gens: list[tuple[int, ...]] = []
        node_ids: dict[tuple[int, ...], int] = {}
        # the walk's tree: node i was found as node parents[i]
        # conjugated by g_gens[vias[i]]; -1 for the first member of each
        # class
        parents: list[int] = []
        vias: list[int] = []
        classes: list[range] = []
        layers: list[list[int]] = []  # each class's breadth-first layer ends, local ids
        rep_ids: list[np.ndarray] = []  # each class representative's elements

        g_gens = engine.gen_indices
        # images[k][i]: the id of node i conjugated by g_gens[k]
        images: list[list[int]] = [[] for _ in g_gens]
        conj_table = engine.column_table("conj", g_gens)
        # central[x]: x is fixed by every row of conj_table, so
        # conjugation by x is the identity map; made on first use
        central = None
        mul_table: list[np.ndarray] = []  # G-generators' mul columns, made on first use

        def add(elements: tuple[int, ...], gens: tuple[int, ...], parent: int, via: int):
            tracker.subgroups += 1
            tracker.check()
            node_ids[elements] = len(nodes)
            nodes.append(elements)
            node_gens.append(gens)
            parents.append(parent)
            vias.append(via)

        def register(rep: tuple[int, ...], gens: tuple[int, ...]) -> int:
            """Add a new subgroup and all its conjugates as one class, and
            record each member's image under every generator and the
            tree edge that found it.  The class grows one breadth-first
            layer at a time.  A layer is one array of rows, each a
            member's elements followed by its generators; one gather
            conjugates it by every G-generator, one row-wise sort of the
            element columns and one ``tolist`` make every key, and the
            rows of the members found are the next layer."""
            cid = len(classes)
            first = len(nodes)
            add(rep, gens, -1, -1)
            size = len(rep)
            layer = np.asarray([rep + gens], dtype=np.int64)
            rep_ids.append(layer[0, :size])
            ends = [1]
            start = 0
            # over all classes, members are visited in id order, so each
            # image list is indexed by id
            while start < ends[-1]:
                stop = ends[-1]
                n = stop - start
                # conj[k, r]: layer row r conjugated by g_gens[k]
                conj = conj_table.take(layer, axis=1)
                keys = np.sort(conj[:, :, :size], axis=2).tolist()
                found = []  # k * n + r for each new member, by id
                for r in range(n):
                    for k, image in enumerate(images):
                        key = tuple(keys[k][r])
                        j = node_ids.get(key)
                        if j is None:
                            j = len(nodes)
                            add(key, (), first + start + r, k)
                            found.append(k * n + r)
                        image.append(j)
                if found:
                    layer = conj.reshape(-1, layer.shape[1]).take(found, axis=0)
                    for j, row in zip(range(stop + first, len(nodes)), layer[:, size:].tolist()):
                        node_gens[j] = tuple(row)
                    ends.append(len(nodes) - first)
                start = stop
            classes.append(range(first, len(nodes)))
            layers.append(ends)
            tracker.classes = len(classes)
            return cid

        def schreier(cid: int) -> np.ndarray:
            """``_schreier_generators`` of class cid's representative."""
            if not mul_table:
                mul_table.append(engine.column_table("mul", g_gens))
            first, stop = classes[cid].start, classes[cid].stop
            v = [image[first:stop] for image in images]
            parent = np.asarray(parents[first:stop]) - first
            return _schreier_generators(
                engine, mul_table[0], np.subtract(v, first), parent, np.asarray(vias[first:stop]),
                layers[cid],
            )

        cid = register(tuple(sorted(int(x) for x in seed)), tuple(seed_gens))
        heap = [(len(nodes[classes[cid][0]]), cid)]

        top = tuple(range(order))
        if top not in node_ids:
            register(top, tuple(g_gens))

        candidates = np.asarray(engine.pp_cyclic_generator_reps(), dtype=np.int64)
        pth = engine.pp_rep_pth_powers()

        while heap:
            size, cid = heapq.heappop(heap)
            if size == order:
                continue
            kgens = node_gens[classes[cid][0]]
            k_ids = rep_ids[cid]
            in_k = np.zeros(order, dtype=bool)
            in_k[k_ids] = True
            # covers only: a candidate outside K whose p-th power lies in K
            outside = candidates[in_k[pth] & ~in_k[candidates]]
            if len(outside) > 1:
                n_size = order // len(classes[cid])
                conj = _conjugators(
                    engine, tracker, kgens, k_ids, in_k, n_size, lambda: schreier(cid)
                )
                if central is None:
                    central = (conj_table == np.arange(order)).all(axis=0)
                # <K, y> is conjugate to <K, x> for every y in the orbit of x
                outside = engine.orbit_minima(outside, kgens, [c for c in conj if not central[c]])
            for e in outside.tolist():
                tracker.check()
                tracker.closures["candidate"] += 1
                res = engine.closure(kgens + (e,), bail_half=True, known=k_ids)
                if res is None:
                    continue  # generated the whole group; top is preseeded
                new_rep = tuple(res.tolist())
                if new_rep in node_ids:
                    continue
                ncid = register(new_rep, kgens + (e,))
                heapq.heappush(heap, (len(new_rep), ncid))

        # canonical ordering: by subgroup order, then by element tuple;
        # classes by their smallest id
        perm = sorted(range(len(nodes)), key=lambda i: (len(nodes[i]), nodes[i]))
        inv = {old: new for new, old in enumerate(perm)}
        self.classes = sorted(tuple(sorted(inv[old] for old in m)) for m in classes)
        self._class_of = [0] * len(nodes)
        for ci, members in enumerate(self.classes):
            for nid in members:
                self._class_of[nid] = ci
        self.engine = engine
        self.nodes = [nodes[i] for i in perm]
        self._fs = [frozenset(n) for n in self.nodes]
        self._gens = [node_gens[i] for i in perm]
        self._perms = [[inv[image[old]] for old in perm] for image in images]
        self._sizes = [len(fs) for fs in self._fs]
        self._rows: list[list[int] | None] = [None] * len(nodes)
        # the walk's tree in canonical ids: node i is node p conjugated by
        # generator k for _parent[i] = (p, k), and None at each class's
        # root, _roots[class]
        self._parent: list[tuple[int, int] | None] = [
            None if parents[old] < 0 else (inv[parents[old]], vias[old]) for old in perm
        ]
        self._roots = [0] * len(classes)
        for members in classes:
            root = inv[members.start]
            self._roots[self._class_of[root]] = root
        self.top_id = len(nodes) - 1
        self.stats = tracker.stats()
        self.stats["rows"] = {"scanned": 0, "relabelled": 0}

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def class_of(self, i: int) -> int:
        return self._class_of[i]

    def is_maximal(self, i: int) -> bool:
        """Whether node i is a maximal subgroup: the row of proper
        overgroups (exact, as the family is upward closed) of its class
        root is the top alone."""
        return self._overgroups(self._roots[self._class_of[i]]) == [self.top_id]

    def _from_class(self, cache: list, i: int, scan) -> int:
        """Fill ``cache[i]``: ``scan`` the class root unless an entry on
        the tree path to it is already cached, then relabel down the
        path to node i.  The path is walked iteratively: a class of the
        dihedral group D_2n can be about n/2 steps deep.  Returns the
        number of entries relabelled."""
        chain = []
        while cache[i] is None and (parent := self._parent[i]) is not None:
            chain.append((i, parent))
            i = parent[0]
        if cache[i] is None:
            cache[i] = scan(i)
        for j, (p, k) in reversed(chain):
            perm = self._perms[k]
            cache[j] = sorted([perm[x] for x in cache[p]])
        return len(chain)

    def _overgroups(self, i: int) -> list[int]:
        """Ids of the nodes strictly containing node i, ascending; each
        row is computed once."""
        row = self._rows[i]
        if row is None:
            self.stats["rows"]["relabelled"] += self._from_class(
                self._rows, i, self._scan_overgroups
            )
            row = self._rows[i]
        return row

    def _scan_overgroups(self, i: int) -> list[int]:
        """The frozenset scan behind a representative's row.  A proper
        overgroup has larger order, a multiple of |node i|, so the
        candidates start at the first node of larger order."""
        self.stats["rows"]["scanned"] += 1
        fs, sizes, size = self._fs, self._sizes, self._sizes[i]
        node = fs[i]
        return [
            j
            for j in range(bisect_right(sizes, size), len(fs))
            if sizes[j] % size == 0 and node <= fs[j]
        ]


class SubgroupLattice(_NodePoset):
    """Every subgroup of a finite permutation group, with inclusion
    order, conjugacy classes and the Moebius function mu(H) defined by
    mu(G) = 1 and mu(H) = -sum_{H < K <= G} mu(K).

    Node ids ascend by subgroup order (ties by element tuple): the
    trivial subgroup is node 0, the whole group the last node."""

    def __init__(self, group: PermGroup, budget: Budget):
        self.group = group
        _check_order(group, budget)
        super().__init__(group.engine, budget, (group.engine.id_idx,), ())
        self.trivial_id = 0
        assert len(self.nodes[self.top_id]) == self.engine.order
        self._subgroups_strict: list[list[int]] | None = None
        self._mu = self._compute_moebius()

    # -- basic queries ---------------------------------------------------

    def node_elements(self, i: int) -> tuple[int, ...]:
        return self.nodes[i]

    def node_order(self, i: int) -> int:
        return len(self.nodes[i])

    def node_generators(self, i: int) -> tuple[int, ...]:
        return self._gens[i]

    def node_id_of(self, elements: Iterable[int]) -> int:
        """Id of the node with exactly these elements (in any order,
        repeats allowed), found by bisection in the canonical order."""
        key = tuple(sorted({int(x) for x in elements}))
        lo = bisect_left(self._sizes, len(key))
        i = bisect_left(self.nodes, key, lo, bisect_right(self._sizes, len(key)))
        if i < self.node_count and self.nodes[i] == key:
            return i
        raise KeyError("no such subgroup in the lattice")

    def contains(self, i: int, j: int) -> bool:
        """True when node i is a subgroup of node j."""
        return self._fs[i] <= self._fs[j]

    @property
    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        return list(self.classes)

    def is_normal(self, i: int) -> bool:
        return len(self.classes[self._class_of[i]]) == 1

    def normal_node_ids(self) -> list[int]:
        """Ascending: classes are ordered by their smallest id."""
        return [members[0] for members in self.classes if len(members) == 1]

    @cached_property
    def _normal_covers(self) -> dict[int, list[int]]:
        """Each normal node N -> the ascending ids of the normal nodes
        M < N with no normal node strictly between: the chief steps below
        N.  Read off the normal nodes' overgroup rows: M is covered by the
        normal nodes above M that lie above no other one."""
        normals = self.normal_node_ids()
        normal = set(normals)
        above = {m: {j for j in self._overgroups(m) if j in normal} for m in normals}
        covers: dict[int, list[int]] = {n: [] for n in normals}
        for m in normals:  # ascending, so every cover list ascends
            for n in above[m].difference(*(above[k] for k in above[m])):
                covers[n].append(m)
        return covers

    # -- Moebius -----------------------------------------------------------

    def _compute_moebius(self) -> list[int]:
        # classes are ordered by their smallest id, so in reverse every
        # proper overgroup of a representative is already done
        mu = [0] * self.node_count
        for members, root in zip(reversed(self.classes), reversed(self._roots)):
            value = 1 if root == self.top_id else -sum(mu[j] for j in self._overgroups(root))
            for i in members:
                mu[i] = value
        return mu

    def moebius(self, i: int) -> int:
        return self._mu[i]

    @property
    def moebius_values(self) -> list[int]:
        return list(self._mu)

    # -- containment-derived structure -------------------------------------

    def strict_overgroups(self, i: int) -> list[int]:
        return list(self._overgroups(i))

    def strict_subgroups(self, i: int) -> list[int]:
        if self._subgroups_strict is None:
            subs: list[list[int]] = [[] for _ in range(self.node_count)]
            for lo in range(self.node_count):
                for hi in self._overgroups(lo):
                    subs[hi].append(lo)
            self._subgroups_strict = subs
        return list(self._subgroups_strict[i])

    def maximal_node_ids(self) -> list[int]:
        """Maximal subgroups, ascending.  Maximality is a class
        property, so only representatives' rows are read."""
        return sorted(i for members in self.classes if self.is_maximal(members[0]) for i in members)

    def frattini_node_id(self) -> int:
        """Intersection of all maximal subgroups (the whole group if
        there are none, which only happens for the trivial group)."""
        maxima = self.maximal_node_ids()
        if not maxima:
            return self.top_id
        acc = self._fs[maxima[0]]
        for i in maxima[1:]:
            acc = acc & self._fs[i]
        return self.node_id_of(acc)

    def hasse_edges(self) -> list[tuple[int, int]]:
        """Covering pairs (i, j): i < j with nothing strictly between,
        ordered by i, then j.  The cover test runs on class
        representatives; every other node's covers are relabelled."""
        covers: list[list[int] | None] = [None] * self.node_count
        for i in range(self.node_count):
            self._from_class(covers, i, self._scan_covers)
        return [(i, j) for i in range(self.node_count) for j in covers[i]]

    def _scan_covers(self, i: int) -> list[int]:
        """Node i's covers.  Its row ascends, so a node k strictly
        between i and j comes before j, and so does a cover of i below
        k: j is a cover iff no row of the covers found so far holds it."""
        covers: list[int] = []
        above: set[int] = set()
        for j in self._overgroups(i):
            if j not in above:
                covers.append(j)
                above.update(self._overgroups(j))
        return covers

    # -- derived groups ------------------------------------------------------

    def subgroup_group(self, i: int) -> PermGroup:
        gens = [self.engine.permutation(x) for x in self._gens[i]]
        return PermGroup(
            self.group.degree, gens, name=f"{self.group.name}.node{i}"
        )

    def quotient_group(self, i: int) -> PermGroup:
        """G / N for a normal node N, as the faithful coset action.
        Public API and a test oracle: the library itself reads G / N as
        the interval [N, G] of this lattice."""
        grp, _ = self.quotient_with_hom(i)
        return grp

    def quotient_with_hom(self, i: int):
        """Quotient group plus the projection, as a function from parent
        element index to the image Permutation."""
        if not self.is_normal(i):
            raise NotNormal(f"node {i} is not normal in {self.group.name}")
        degree, gen_rows, image_of = self.engine.quotient_action(self.nodes[i])
        quotient = PermGroup(
            degree,
            [Permutation(r) for r in gen_rows],
            name=f"{self.group.name}/node{i}",
        )

        def hom(idx: int) -> Permutation:
            return Permutation(image_of(idx))

        return quotient, hom

    # -- export ---------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "group": self.group.name,
            "degree": self.group.degree,
            "order": self.engine.order,
            "nodes": [list(n) for n in self.nodes],
            "hasse_edges": [list(e) for e in self.hasse_edges()],
            "conjugacy_classes": [list(c) for c in self.classes],
            "moebius": list(self._mu),
        }

    def __repr__(self) -> str:
        return (
            f"SubgroupLattice({self.group.name!r}, nodes={self.node_count}, "
            f"classes={self.class_count})"
        )


def _check_order(group: PermGroup, budget: Budget) -> None:
    """Refuse, before any element table, a group above the budget's
    order."""
    if group.degree > budget.max_order:
        # |G| is at least its largest orbit, found without the chain,
        # whose first level may hold that many rows of degree points
        largest = int(np.bincount(_orbit_roots(group.generator_rows)).max())
        if largest > budget.max_order:
            raise OrderBoundExceeded(
                f"order at least {largest} exceeds lattice budget {budget.max_order}"
            )
    budget.check_order(group.order)  # the order comes without the table


def subgroup_lattice(group: PermGroup, budget: Budget | None = None) -> SubgroupLattice:
    return SubgroupLattice(group, budget or DEFAULT_BUDGET)


# ---------------------------------------------------------------------------
# odd-index families (overgroups of a Sylow 2-subgroup)
# ---------------------------------------------------------------------------


def overgroups_of_seed(
    engine: _Engine,
    seed: Sequence[int],
    seed_gens: Sequence[int],
    budget: Budget | None = None,
) -> _NodePoset:
    budget = budget or DEFAULT_BUDGET
    budget.check_order(engine.order)
    return _NodePoset(engine, budget, seed, seed_gens)


# ---------------------------------------------------------------------------
# chief series
# ---------------------------------------------------------------------------

SIMPLE_ORDER_LABELS = {
    60: "A5",
    168: "PSL(2,7)",
    360: "A6",
    504: "PSL(2,8)",
    660: "PSL(2,11)",
    1092: "PSL(2,13)",
    2448: "PSL(2,17)",
    2520: "A7",
    3420: "PSL(2,19)",
    6072: "PSL(2,23)",
    7920: "M11",
    9828: "PSL(2,27)",
    12180: "PSL(2,29)",
}


@dataclass(frozen=True)
class ChiefStep:
    """One step N_i > N_{i+1} of a chief series, with the factor
    identified as (simple group)^multiplicity."""

    upper: int
    lower: int
    label: str
    simple_order: int
    multiplicity: int
    factor_order: int
    abelian: bool


def chief_series_ids(lat: SubgroupLattice) -> list[int]:
    """A maximal chain in the normal-subgroup poset, top to bottom.

    Deterministic: each step takes the largest-order normal cover of
    the current node, so every factor is a chief factor; ``max`` keeps
    the first of equal orders, the smallest id and element tuple.
    """
    chain = [lat.top_id]
    while chain[-1] != lat.trivial_id:
        chain.append(max(lat._normal_covers[chain[-1]], key=lat.node_order))
    return chain


def all_chief_series_ids(lat: SubgroupLattice, limit: int = 512) -> list[list[int]]:
    """Every maximal chain in the normal-subgroup poset (small groups),
    depth first over the normal covers in ascending id order."""
    chains: list[list[int]] = []

    def walk(chain: list[int]):
        if len(chains) >= limit:
            raise BudgetExceeded(f"more than {limit} chief series", {})
        cur = chain[-1]
        if cur == lat.trivial_id:
            chains.append(list(chain))
            return
        for nxt in lat._normal_covers[cur]:
            walk(chain + [nxt])

    walk([lat.top_id])
    return chains


def factor_group(lat: SubgroupLattice, upper: int, lower: int) -> PermGroup:
    """The section N_upper / N_lower as an abstract permutation group
    (the coset action of N_upper on N_lower).

    Public API and a test oracle for ``chief_steps``; the chief
    factorization reads its labels off the lattice and never builds
    a section group."""
    if not lat.contains(lower, upper):
        raise ValueError("lower node is not contained in upper node")
    sub = lat.subgroup_group(upper)
    eng = lat.engine
    lower_in_sub = sub.engine.indices_of_rows(eng.rows[list(lat.node_elements(lower))])
    degree, gen_rows, _ = sub.engine.quotient_action(lower_in_sub)
    return PermGroup(
        degree,
        [Permutation(r) for r in gen_rows],
        name=f"{lat.group.name}.sec({upper},{lower})",
    )


def identify_characteristically_simple(group: PermGroup) -> tuple[str, int, int]:
    """Recognize S^r for a simple group S: returns (label, |S|, r).

    Abelian case: checks the group is elementary abelian p^r.
    Nonabelian case: the smallest normal closure of an element is one
    simple factor; its order determines S up to the scale handled here
    (labels come from an order table, which is enough for labeling).

    Public API and, with ``factor_group``, the test oracle for
    ``chief_steps``, which does not call it.
    """
    n = group.order
    if n == 1:
        raise ValueError("trivial group is not characteristically simple")
    eng = group.engine
    if group.is_abelian:
        fac = prime_factors(n)
        if len(fac) != 1:
            raise ValueError(f"abelian factor of order {n} is not a p-group")
        p = fac[0]
        orders = eng.element_orders()
        if any(int(o) not in (1, p) for o in orders):
            raise ValueError(f"abelian factor of order {n} is not elementary")
        r = 0
        m = n
        while m > 1:
            m //= p
            r += 1
        return f"C{p}", p, r
    best = n
    for i in range(eng.order):
        if i == eng.id_idx:
            continue
        size = len(eng.normal_closure([i]))
        if size < best:
            best = size
    r, m = 0, 1
    while m < n:
        m *= best
        r += 1
    if m != n:
        raise ValueError(f"order {n} is not a power of minimal normal order {best}")
    label = SIMPLE_ORDER_LABELS.get(best, f"simple<{best}>")
    return label, best, r


def chief_steps(lat: SubgroupLattice, chain: list[int] | None = None) -> list[ChiefStep]:
    """Label each step N_upper > N_lower of a chief series (by default
    ``chief_series_ids``) as (simple group)^multiplicity, read off G's
    lattice and engine; no section group is built.

    * The factor order is |N_upper| / |N_lower|.  The factor is abelian
      iff every commutator of two generators of N_upper lies in N_lower
      (which is normal in N_upper).
    * A chief factor is a minimal normal subgroup of G / N_lower, so an
      abelian one is elementary abelian of order p^r.
    * A nonabelian one is T^r for a simple T, and its minimal normal
      subgroups are the r copies of T.  So |T| is the least
      |M| / |N_lower| over the nodes N_lower < M <= N_upper that
      N_upper normalizes; when the factor order is not a perfect power,
      r = 1 and nothing is scanned.

    Raises ``NotNormal`` when a bound is not a normal node, and
    ``ValueError`` when the chain does not run from G to 1 or a step is
    not a chief step: N_lower is not a proper subgroup of N_upper, or a
    normal node lies strictly between.
    """
    chain = chief_series_ids(lat) if chain is None else chain
    if not chain or chain[0] != lat.top_id or chain[-1] != lat.trivial_id:
        raise ValueError(
            f"a chief series runs from node {lat.top_id} (the whole group) "
            f"to node {lat.trivial_id} (the trivial subgroup), got {list(chain)}"
        )
    eng = lat.engine
    steps = []
    for upper, lower in zip(chain, chain[1:]):
        if not (lat.is_normal(upper) and lat.is_normal(lower)):
            raise NotNormal("chief factor bounds must be normal nodes")
        upper_fs, lower_fs = lat._fs[upper], lat._fs[lower]
        if lower not in lat._normal_covers[upper]:
            if not lower_fs < upper_fs:
                raise ValueError(f"node {lower} is not a proper subgroup of node {upper}")
            row = lat._overgroups(lower)
            between = next(m for m in row if lat.is_normal(m) and lat._fs[m] < upper_fs)
            raise ValueError(
                f"not a chief step: normal node {between} of order "
                f"{lat.node_order(between)} lies strictly between nodes {upper} and {lower}"
            )
        factor_order = len(upper_fs) // len(lower_fs)
        gens = lat.node_generators(upper)
        abelian = all(
            eng.commutator(a, b) in lower_fs for i, a in enumerate(gens) for b in gens[:i]
        )
        if abelian:
            simple_order = prime_factors(factor_order)[0]
            label = f"C{simple_order}"
        else:
            simple_order = _simple_factor_order(lat, upper, lower, factor_order)
            label = SIMPLE_ORDER_LABELS.get(simple_order, f"simple<{simple_order}>")
        mult, m = 1, simple_order
        while m < factor_order:
            m *= simple_order
            mult += 1
        steps.append(
            ChiefStep(
                upper=upper,
                lower=lower,
                label=label,
                simple_order=simple_order,
                multiplicity=mult,
                factor_order=factor_order,
                abelian=abelian,
            )
        )
    return steps


def _simple_factor_order(lat: SubgroupLattice, upper: int, lower: int, factor_order: int) -> int:
    """|T| for a nonabelian chief factor N_upper / N_lower = T^r: the
    least |M| / |N_lower| over the nodes M of N_lower's overgroup row
    with M < N_upper, |M| / |N_lower| a proper root of the factor order
    and M normalized by N_upper's generators (the conjugates of M's
    generators lie in M); the factor order itself when there is none."""
    roots = {integer_nth_root(factor_order, k) for k in range(2, factor_order.bit_length())}
    roots.discard(None)
    if not roots:
        return factor_order
    eng, sizes, low = lat.engine, lat._sizes, lat._sizes[lower]
    upper_fs = lat._fs[upper]
    ugens = lat.node_generators(upper)
    row = lat._overgroups(lower)  # ascending ids, so ascending orders
    least, most = min(roots), max(roots)
    for m in row[bisect_left(row, bisect_left(sizes, low * least)) :]:
        t = sizes[m] // low
        if t > most:
            break
        if t not in roots or not lat._fs[m] < upper_fs:
            continue
        mgens = np.asarray(lat.node_generators(m), dtype=np.int64)
        if all(lat._fs[m].issuperset(eng.conj_set(mgens, u).tolist()) for u in ugens):
            return t
    return factor_order
