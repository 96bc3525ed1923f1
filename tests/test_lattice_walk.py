"""The lattice walk against a reference walk, and its closure counts.

``_reference_walk`` is the candidate loop the walk replaced: it extends
each class representative K by one prime-power cyclic generator per
K-conjugation orbit, with no normalizer, no double cosets, no power
maps and no rule on p-th powers.  Both walks must list the same
subgroups in the same canonical order, with the same classes and
Moebius values."""

import heapq

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings

from pzeta import Budget, BudgetExceeded, PermGroup, symmetric
from pzeta import cli, lattice
from pzeta.lattice import _NodePoset, overgroups_of_seed
from pzeta.numtheory import prime_factors
from pzeta.permgroup import _min_labels
from helpers import CORPUS_NAMES, GROUPS, group, psl2


def _reference_walk(engine, seed, seed_gens):
    """Canonical (nodes, classes, class_of) of every conjugate of every
    overgroup of the seed, by the K-conjugation candidate loop."""
    order = engine.order
    nodes, node_class, classes, class_gens = [], [], [], []
    seen_nodes = set()

    def register(rep, gens):
        cid = len(classes)
        members, pending, seen = [], [rep], {rep}
        while pending:
            cur = pending.pop()
            node_class.append(cid)
            members.append(len(nodes))
            nodes.append(cur)
            seen_nodes.add(cur)
            arr = np.asarray(sorted(cur))
            for g in engine.gen_indices:
                conj = frozenset(engine.conj_set(arr, g).tolist())
                if conj not in seen:
                    seen.add(conj)
                    pending.append(conj)
        classes.append(members)
        class_gens.append(tuple(gens))
        return cid

    cid = register(frozenset(int(x) for x in seed), seed_gens)
    heap = [(len(nodes[classes[cid][0]]), cid)]
    if frozenset(range(order)) not in seen_nodes:
        register(frozenset(range(order)), engine.gen_indices)
    candidates = engine.pp_cyclic_generator_reps()
    while heap:
        size, cid = heapq.heappop(heap)
        if size == order:
            continue
        kgens = class_gens[cid]
        covered = set(nodes[classes[cid][0]])
        for e in candidates:
            if e in covered:
                continue
            orbit = [e]
            covered.add(e)
            for x in orbit:
                for k in kgens:
                    y = engine.conj_elem(x, k)
                    if y not in covered:
                        covered.add(y)
                        orbit.append(y)
            res = engine.closure(kgens + (e,), bail_half=True)
            if res is None:
                continue
            new = frozenset(res.tolist())
            if new not in seen_nodes:
                ncid = register(new, kgens + (e,))
                heapq.heappush(heap, (len(new), ncid))

    perm = sorted(range(len(nodes)), key=lambda i: (len(nodes[i]), sorted(nodes[i])))
    new_id = {old: new for new, old in enumerate(perm)}
    ordered = sorted(
        (sorted(new_id[i] for i in members) for members in classes), key=min
    )
    class_of = [0] * len(nodes)
    for ci, members in enumerate(ordered):
        for i in members:
            class_of[i] = ci
    canon = [tuple(sorted(nodes[i])) for i in perm]
    return canon, [tuple(m) for m in ordered], class_of


def _reference_moebius(nodes):
    sets = [frozenset(n) for n in nodes]
    mu = [0] * len(sets)
    for i in reversed(range(len(sets))):
        above = [mu[j] for j in range(i + 1, len(sets)) if sets[i] < sets[j]]
        mu[i] = -sum(above) if i < len(sets) - 1 else 1
    return mu


def _check_full(grp):
    lat = grp.subgroup_lattice()
    eng = lat.engine
    nodes, classes, class_of = _reference_walk(eng, (eng.id_idx,), ())
    assert [lat.node_elements(i) for i in range(lat.node_count)] == nodes
    assert lat.conjugacy_classes == classes
    assert [lat.class_of(i) for i in range(lat.node_count)] == class_of
    assert lat.moebius_values == _reference_moebius(nodes)


def _check_family(eng, seed, seed_gens):
    fam = overgroups_of_seed(eng, seed, seed_gens)
    nodes, classes, class_of = _reference_walk(eng, seed, seed_gens)
    assert (fam.nodes, fam.classes) == (nodes, classes)
    assert [fam.class_of(i) for i in range(fam.node_count)] == class_of


class TestAgainstReferenceWalk:
    @pytest.mark.parametrize(
        "name", ["C12", "Q8", "D12", "S4", "A4xC2", "S5", "A5xC2", "S4xS3", "PGL(2,7)"]
    )
    def test_full_lattice(self, name):
        _check_full(group(name))

    @pytest.mark.parametrize("variant", ["psl", "pgl"])
    @pytest.mark.parametrize("q", [5, 7, 11, 13])
    def test_sylow_family(self, q, variant):
        eng = psl2(q, variant).group.engine
        _check_family(eng, *eng.sylow2())

    # the trivial seed is the walk behind ``SubgroupLattice``, and so
    # behind ``omega --include-even``; here it runs through the seeded
    # entry point ``overgroups_of_seed``
    @pytest.mark.parametrize("variant", ["psl", "pgl"])
    @pytest.mark.parametrize("q", [5, 7, 11, 13])
    def test_trivial_seed_family(self, q, variant):
        eng = psl2(q, variant).group.engine
        _check_family(eng, (eng.id_idx,), ())

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
    )
    @given(GROUPS)
    def test_random_generating_sets(self, data):
        degree, gens = data
        grp = PermGroup(degree, gens)
        assume(grp.order <= 360)  # the reference walk takes seconds on larger lattices
        _check_full(grp)
        _check_family(grp.engine, *grp.engine.sylow2())


def _cyclic_subgroups(engine):
    """<x> for every element x, as a set of indices, from the image rows
    of x, x^2, ... (x^k applies x k times)."""
    orders = engine.element_orders().tolist()
    rows, power = engine.rows, engine.rows
    cyclic = [{engine.id_idx} for _ in range(engine.order)]
    for k in range(1, max(orders) + 1):
        for x, y in enumerate(engine.indices_of_rows(power).tolist()):
            if k < orders[x]:
                cyclic[x].add(y)
        power = np.take_along_axis(rows, power, axis=1)
    return cyclic


class TestCandidateCuts:
    """The walk's two cuts: candidates merged under the power maps, and
    only candidates c with c^p in K tried."""

    @settings(max_examples=40, deadline=None)
    @given(GROUPS)
    def test_power_maps_and_pth_powers(self, data):
        degree, gens = data
        eng = PermGroup(degree, gens).engine
        orders = eng.element_orders().tolist()
        cyclic = _cyclic_subgroups(eng)
        maps = [m.tolist() for m in eng.power_maps()]
        assert 1 <= len(maps) <= 2
        for m in maps:
            assert sorted(m) == list(range(eng.order))
            for x, y in enumerate(m):  # y generates <x>
                assert y in cyclic[x] and orders[y] == orders[x]
        reps = eng.pp_cyclic_generator_reps()
        assert len(eng.pp_rep_pth_powers()) == len(reps)
        for c, c_p in zip(reps, eng.pp_rep_pth_powers().tolist()):
            p = prime_factors(orders[c])[0]
            y = c
            for _ in range(p - 1):
                y = eng.mul(y, c)
            assert c_p == y
            # the maps join the generators of <c> into one orbit
            orbit = {c}
            frontier = [c]
            for x in frontier:
                for m in maps:
                    if m[x] not in orbit:
                        orbit.add(m[x])
                        frontier.append(m[x])
            assert orbit == {y for y in cyclic[c] if orders[y] == orders[c]}
        # c is the least generator of <c>, and every nontrivial cyclic
        # p-subgroup has one: the walk and _reference_walk draw from these
        least = {
            min(y for y in cyclic[x] if orders[y] == orders[x])
            for x in range(eng.order)
            if len(prime_factors(orders[x])) == 1
        }
        assert reps == tuple(sorted(least))

    def test_psl2_13_tries_one_candidate_for_its_order_13_subgroups(self):
        # its 14 cyclic subgroups of order 13 are conjugate, but their
        # least generators lie in both of its classes of order 13
        eng = group("PSL(2,13)").engine
        orders = eng.element_orders()
        reps = np.asarray(eng.pp_cyclic_generator_reps())
        thirteen = reps[orders[reps] == 13]
        assert len(thirteen) == 14
        labels = np.arange(eng.order, 2 * eng.order)
        labels[thirteen] = thirteen
        by_conjugation = _min_labels(labels, [eng._column("conj", g) for g in eng.gen_indices])
        assert len(set(by_conjugation[thirteen].tolist())) == 2
        assert len(eng.orbit_minima(thirteen, (), eng.gen_indices)) == 1


def _check_normalizers(grp, monkeypatch):
    """For every class representative K that the walk extends by more
    than one candidate, K and the Schreier generators of its class tree
    generate the normalizer: the x with x^-1 * k * x in K for every
    generator k of K (``conj_set`` by each x).  The generators are taken
    for every such class, normal and self-normalizing ones included."""
    seen = []
    original = lattice._conjugators

    def spy(engine, tracker, kgens, k_ids, in_k, n_size, schreier):
        seen.append((kgens, in_k.copy(), schreier()))
        return original(engine, tracker, kgens, k_ids, in_k, n_size, schreier)

    monkeypatch.setattr(lattice, "_conjugators", spy)
    eng = grp.engine
    _NodePoset(eng, Budget(), (eng.id_idx,), ())
    for kgens, in_k, pool in seen:
        k = np.asarray(kgens, dtype=np.int64)
        expected = [x for x in range(eng.order) if in_k[eng.conj_set(k, x)].all()]
        assert eng.closure(tuple(kgens) + tuple(pool.tolist())).tolist() == expected
    return len(seen)


class TestClassNormalizer:
    """The normalizer from the class's conjugation tree against its
    oracle, the conjugates of K's generators by every element."""

    @pytest.mark.parametrize("name", CORPUS_NAMES + ["S4xS3", "PGL(2,7)", "A4xC2"])
    def test_schreier_generators_give_the_normalizer(self, name, monkeypatch):
        _check_normalizers(group(name), monkeypatch)

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
    )
    @given(GROUPS)
    def test_schreier_generators_on_random_groups(self, data):
        degree, gens = data
        grp = PermGroup(degree, gens)
        assume(grp.order <= 360)
        with pytest.MonkeyPatch.context() as monkeypatch:
            _check_normalizers(grp, monkeypatch)


class TestClosureCounts:
    # Deterministic counts of the builtin groups (element indexing and
    # the walk do not depend on the run): the walk makes 385, 92, 372
    # and 53 candidate closures for S6, PGL(2,7), S4xS3 and PSL(2,13),
    # and 72, 22, 85 and 13 normalizer closures with generators drawn
    # from the classes' Schreier generators (73, 23, 88 and 12 when
    # they were drawn from commutator masks), 457, 114, 457 and 66 in
    # all.  Before the power maps and the c^p in K rule it made 622,
    # 187, 477 and 228, and the K-conjugation loop it replaced made
    # 3568, 934 and 1812 for the first three.
    CEILINGS = {"S6": 480, "PGL(2,7)": 120, "S4xS3": 483, "PSL(2,13)": 68}

    @pytest.mark.parametrize("name", list(CEILINGS))
    def test_builtin_lattices_stay_under_ceiling(self, name):
        stats = group(name).subgroup_lattice().stats
        assert set(stats["closures"]) == {"candidate", "normalizer"}
        assert sum(stats["closures"].values()) <= self.CEILINGS[name]

    def test_family_and_refusal_carry_closures(self, capsys):
        eng = psl2(7, "pgl").group.engine
        fam = overgroups_of_seed(eng, *eng.sylow2())
        assert fam.stats["closures"]["candidate"] > 0
        with pytest.raises(BudgetExceeded) as ei:
            symmetric(4).subgroup_lattice(Budget(max_subgroups=5))
        assert ei.value.stats["closures"]["candidate"] >= 1
        assert cli.main(["--budget-subgroups", "5", "pg", "--builtin", "S4"]) == 3
        assert "closures.candidate=" in capsys.readouterr().err
