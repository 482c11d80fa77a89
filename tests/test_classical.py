"""Classical (set-based) transversal theory."""

import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtransversal import (
    ClassicalMatroid,
    GroundMismatch,
    InfeasibleScale,
    SetFamily,
    avoid_rado_check,
    avoiding_transversal_by_injections,
    avoiding_transversal_check,
    field_make,
    find_transversal,
    hall_check,
    is_partial_transversal,
    rado_check,
)


def fam(ground, *members):
    return SetFamily(tuple(ground), tuple(frozenset(m) for m in members))


@lru_cache(maxsize=None)
def bases(matroid):
    """All bases of the matroid, by brute force over subsets."""
    n = len(matroid.ground)
    if n > 20:
        raise InfeasibleScale(f"basis enumeration over 2^{n} subsets")
    full_rank = matroid.rank(matroid.ground)
    return tuple(
        frozenset(combo)
        for combo in itertools.combinations(matroid.ground, full_rank)
        if matroid.rank(combo) == full_rank
    )


def co_nullity(matroid, x):
    """nu*(X) = min over bases B of |X meet B|."""
    x = frozenset(x)
    if not x <= set(matroid.ground):
        raise GroundMismatch("subset contains labels outside the ground")
    return min(len(x & b) for b in bases(matroid))


def all_families(ground, max_n):
    subsets = [
        frozenset(c)
        for k in range(len(ground) + 1)
        for c in itertools.combinations(ground, k)
    ]
    for n in range(max_n + 1):
        for members in itertools.product(subsets, repeat=n):
            yield SetFamily(tuple(ground), members)


def brute_force_transversal(family):
    """Oracle: try every injection from member indices to ground elements."""
    n = len(family.members)
    for elems in itertools.permutations(family.ground, n):
        if all(x in m for x, m in zip(elems, family.members)):
            return dict(zip(range(1, n + 1), elems))
    return None


def brute_force_independent_transversal(matroid, family):
    """Oracle: some transversal whose element set is independent."""
    n = len(family.members)
    for elems in itertools.permutations(family.ground, n):
        if all(x in m for x, m in zip(elems, family.members)):
            if matroid.rank(frozenset(elems)) == n:
                return elems
    return None


def test_hall_examples():
    bad = fam("a", {"a"}, {"a"})
    verdict = hall_check(bad)
    assert not verdict.ok and verdict.witness_J == (1, 2)
    assert hall_check(fam("ab", {"a", "b"}, {"b"})).ok
    assert hall_check(fam("ab")).ok  # empty family is vacuously fine


def test_find_transversal_examples():
    t = find_transversal(fam("ab", {"a", "b"}, {"b"}))
    assert t == {1: "a", 2: "b"}
    assert find_transversal(fam("a", {"a"}, {"a"})) is None
    assert find_transversal(fam("ab", {"a", "b"}, {"a", "b"}, {"a", "b"})) is None


def test_hall_iff_matching_exhaustive_small():
    for family in all_families("abc", 3):
        verdict = hall_check(family)
        found = find_transversal(family)
        assert verdict.ok == (found is not None)
        if found is not None:
            values = [found[i + 1] for i in range(len(family.members))]
            assert len(set(values)) == len(values)
            assert all(x in m for x, m in zip(values, family.members))
        else:
            assert brute_force_transversal(family) is None


def test_rado_with_free_matroid_is_hall():
    free = ClassicalMatroid.free(tuple("abc"))
    for family in all_families("abc", 3):
        assert rado_check(free, family).ok == hall_check(family).ok


def test_rado_examples():
    rank_zero = ClassicalMatroid(tuple("ab"), lambda s: 0, "rank-0")
    verdict = rado_check(rank_zero, fam("ab", {"a"}))
    assert not verdict.ok and verdict.witness_J == (1,)

    gf2 = field_make(2, 1)
    ground = ("s1", "s2", "s3")
    m = ClassicalMatroid.linear(ground, gf2, [(1, 0), (0, 1), (1, 1)])
    family = fam(ground, {"s1", "s2"}, {"s3"})
    assert rado_check(m, family).ok
    witness = brute_force_independent_transversal(m, family)
    assert witness is not None and set(witness) == {"s1", "s3"}
    # A depth-first augmenting search for member 3 leaves the labels held
    # dependent here; the breadth-first one passes, as brute force does.
    columns = [(1, 0, 0), (1, 1, 1), (0, 1, 0), (1, 1, 0), (1, 0, 0), (1, 0, 0), (0, 0, 1)]
    m = ClassicalMatroid.linear(tuple("abcdefg"), gf2, columns)
    family = fam("abcdefg", "defg", "ceg", "abceg")
    assert rado_check(m, family).ok
    assert brute_force_independent_transversal(m, family) is not None


def test_rado_matches_brute_force_on_linear_matroid():
    gf2 = field_make(2, 1)
    ground = ("s1", "s2", "s3")
    m = ClassicalMatroid.linear(ground, gf2, [(1, 0), (0, 1), (1, 1)])
    for family in all_families(ground, 3):
        expected = brute_force_independent_transversal(m, family) is not None
        assert rado_check(m, family).ok == expected


def test_rado_ground_mismatch():
    m = ClassicalMatroid.free(("a", "b"))
    with pytest.raises(GroundMismatch):
        rado_check(m, fam("ba", {"a"}))


def test_avoiding_examples():
    family = fam("abc", {"a"}, {"a", "b"})
    assert avoiding_transversal_check({"b", "c"}, family)
    assert avoiding_transversal_check(set(), family)
    # |T| > n fails through J = empty.
    assert not avoiding_transversal_check({"a", "b", "c"}, family)


def test_avoiding_fast_equals_injections_exhaustive():
    ground = "abc"
    subsets = [
        frozenset(c)
        for k in range(4)
        for c in itertools.combinations(ground, k)
    ]
    for family in all_families(ground, 3):
        for t in subsets:
            assert avoiding_transversal_check(t, family) == \
                avoiding_transversal_by_injections(t, family)


def test_avoiding_fast_equals_injections_sampled_larger():
    import random

    rng = random.Random(20260810)
    for ground in ("abcd", "abcde"):
        elements = list(ground)
        for _ in range(400):
            n = rng.randint(0, 4)
            members = tuple(
                frozenset(x for x in elements if rng.random() < 0.5)
                for _ in range(n)
            )
            family = SetFamily(tuple(ground), members)
            t = frozenset(x for x in elements if rng.random() < 0.4)
            assert avoiding_transversal_check(t, family) == \
                avoiding_transversal_by_injections(t, family)


def test_co_nullity_examples():
    free = ClassicalMatroid.free(tuple("abc"))
    for k in range(4):
        for x in itertools.combinations("abc", k):
            assert co_nullity(free, frozenset(x)) == len(x)
    assert co_nullity(free, frozenset()) == 0
    gf2 = field_make(2, 1)
    m = ClassicalMatroid.linear(("s1", "s2", "s3"), gf2, [(1, 0), (0, 1), (1, 1)])
    assert len(bases(m)) == 3  # any two of the three distinct lines
    assert co_nullity(m, {"s1"}) == 0


def test_co_nullity_dual_identity():
    # rho(S \ X) = nu*(S) - nu*(X) for free and small linear matroids.
    gf2 = field_make(2, 1)
    matroids = [
        ClassicalMatroid.free(tuple("abc")),
        ClassicalMatroid.linear(("a", "b", "c"), gf2, [(1, 0), (0, 1), (1, 1)]),
        ClassicalMatroid.linear(("a", "b", "c"), gf2, [(1, 0), (1, 0), (0, 1)]),
    ]
    for m in matroids:
        s = frozenset(m.ground)
        nu_s = co_nullity(m, s)
        for k in range(len(m.ground) + 1):
            for x in itertools.combinations(m.ground, k):
                x = frozenset(x)
                assert m.rank(s - x) == nu_s - co_nullity(m, x)


def test_avoid_rado_reduces_to_avoid_hall_for_free():
    free = ClassicalMatroid.free(tuple("abc"))
    full = frozenset("abc")
    for family in all_families("abc", 2):
        # Avoidance Hall: some avoiding transversal exists iff the
        # complemented family passes ordinary Hall.
        complemented = SetFamily(
            family.ground, tuple(full - m for m in family.members)
        )
        assert avoid_rado_check(free, family).ok == hall_check(complemented).ok


def test_avoid_rado_empty_family():
    free = ClassicalMatroid.free(tuple("ab"))
    assert avoid_rado_check(free, fam("ab")).ok


def test_avoid_rado_matches_rado_on_complements():
    gf2 = field_make(2, 1)
    ground = ("s1", "s2", "s3")
    m = ClassicalMatroid.linear(ground, gf2, [(1, 0), (0, 1), (1, 1)])
    full = frozenset(ground)
    for family in all_families(ground, 2):
        complemented = SetFamily(family.ground, tuple(full - x for x in family.members))
        assert avoid_rado_check(m, family).ok == rado_check(m, complemented).ok


def test_partial_transversals_satisfy_augmentation():
    # Edmonds-Fulkerson, observed not proved: the partial transversals of
    # a family form the independent sets of a matroid.
    ground = "abcd"
    families = [
        fam(ground, {"a", "b"}, {"b", "c"}, {"d"}),
        fam(ground, {"a"}, {"a", "b"}, {"a", "b", "c"}),
        fam(ground, {"a", "b", "c", "d"}, {"b"}),
    ]
    subsets = [
        frozenset(c)
        for k in range(5)
        for c in itertools.combinations(ground, k)
    ]
    for family in families:
        partials = {s for s in subsets if is_partial_transversal(s, family)}
        for i1, i2 in itertools.product(partials, repeat=2):
            if len(i1) < len(i2):
                assert any(i1 | {x} in partials for x in i2 - i1)


def test_set_family_validation():
    with pytest.raises(GroundMismatch):
        fam("ab", {"c"})
    with pytest.raises(GroundMismatch):
        SetFamily(("a", "a"), ())
    with pytest.raises(GroundMismatch):
        avoiding_transversal_check({"z"}, fam("ab", {"a"}))


def test_set_family_refuses_a_string_member():
    # frozenset("ab") would read the member "ab" as {a, b}.
    with pytest.raises(GroundMismatch):
        SetFamily(("a", "b"), ("ab",))
    assert SetFamily(("a", "b"), (("a", "b"),)).members == (frozenset("ab"),)


def test_set_family_refuses_a_string_ground():
    # tuple("ab") would read the ground "ab" as (a, b).
    with pytest.raises(GroundMismatch):
        SetFamily("ab", (frozenset("a"), frozenset("b")))


def test_set_family_keeps_a_list_ground_as_a_tuple():
    # A list ground is stored as the tuple it was validated as, so the
    # family equals its tuple-ground twin and shares a ground with a
    # matroid built on it.
    listed = SetFamily(["a", "b"], [{"a"}])
    assert listed.ground == ("a", "b")
    assert listed == SetFamily(("a", "b"), [{"a"}])
    assert hash(listed) == hash(SetFamily(("a", "b"), [{"a"}]))
    free = ClassicalMatroid.free(listed.ground)
    assert rado_check(free, listed).ok
    assert avoid_rado_check(free, listed).ok


@pytest.mark.parametrize("ground", ["ab", ("a", "a")], ids=["string", "repeated"])
def test_classical_matroid_refuses_a_string_or_repeated_ground(ground):
    # A string ground would be read as its characters; SetFamily refuses both.
    gf2 = field_make(2, 1)
    with pytest.raises(GroundMismatch):
        ClassicalMatroid.free(ground)
    with pytest.raises(GroundMismatch):
        ClassicalMatroid.linear(ground, gf2, [(1,), (1,)])
    with pytest.raises(GroundMismatch):
        ClassicalMatroid(ground, len, "free")


def test_linear_matroid_axiom_spot_check_rejects_bad_columns():
    # Construction itself verifies the axioms on small grounds; a healthy
    # matrix passes.
    gf4 = field_make(2, 2)
    m = ClassicalMatroid.linear(("x", "y"), gf4, [(1, 0), (2, 0)])
    assert m.rank(frozenset({"x", "y"})) == 1


# Differential tests: each check names the first failing J without
# walking the index sets; the reference below walks every J, as sets.


def first_failing_J(family, fails):
    """The first J, in ascending bitmask order, at which fails(J) holds,
    as 1-based indices; None when there is none."""
    n = len(family)
    for mask in range(1 << n):
        J = tuple(i + 1 for i in range(n) if mask >> i & 1)
        if fails(J):
            return J
    return None


def union_of(family, J):
    return frozenset().union(*(family.members[i - 1] for i in J))


def meet_of(family, J):
    # X(empty) = S.
    return frozenset(family.ground).intersection(*(family.members[i - 1] for i in J))


@st.composite
def labeled_families(draw):
    """A ground of at most 6 labels and a family of at most 5 subsets."""
    ground = tuple("abcdef"[: draw(st.integers(0, 6))])
    masks = draw(st.lists(st.integers(0, (1 << len(ground)) - 1), max_size=5))
    return SetFamily(
        ground,
        tuple(frozenset(x for i, x in enumerate(ground) if m >> i & 1) for m in masks),
    )


@st.composite
def matroids_and_families(draw):
    """A free or linear (over GF(2) or GF(3)) matroid on a drawn family's ground."""
    family = draw(labeled_families())
    if draw(st.booleans()):
        return ClassicalMatroid.free(family.ground), family
    q = draw(st.sampled_from([2, 3]))
    column = st.tuples(*[st.integers(0, q - 1)] * draw(st.integers(1, 3)))
    size = len(family.ground)
    columns = draw(st.lists(column, min_size=size, max_size=size))
    return ClassicalMatroid.linear(family.ground, field_make(q, 1), columns), family


def assert_verdict(verdict, witness):
    assert (verdict.ok, verdict.witness_J) == (witness is None, witness)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(labeled_families())
def test_hall_check_matches_the_per_J_loop(family):
    witness = first_failing_J(family, lambda J: len(union_of(family, J)) < len(J))
    assert_verdict(hall_check(family), witness)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(matroids_and_families())
def test_rado_checks_match_the_per_J_loop(drawn):
    matroid, family = drawn
    witness = first_failing_J(
        family, lambda J: matroid.rank(union_of(family, J)) < len(J)
    )
    assert_verdict(rado_check(matroid, family), witness)
    nu_star_s = co_nullity(matroid, family.ground)
    witness = first_failing_J(
        family, lambda J: co_nullity(matroid, meet_of(family, J)) + len(J) > nu_star_s
    )
    assert_verdict(avoid_rado_check(matroid, family), witness)


def test_avoid_rado_matches_the_co_nullity_per_J_loop_on_seeded_families():
    # Seeded families of up to 8 members on a 7-label linear matroid: the
    # check, Rado on the complements, keeps the verdict and witness of the
    # per-J co-nullity route it replaced.
    rng = random.Random(20)
    ground = tuple("abcdefg")
    for _ in range(40):
        members = [
            frozenset(x for x in ground if rng.random() < 0.8) for _ in range(rng.randint(0, 8))
        ]
        family = SetFamily(ground, tuple(members))
        columns = [tuple(rng.randrange(2) for _ in range(4)) for _ in ground]
        matroid = ClassicalMatroid.linear(ground, field_make(2, 1), columns)
        nu_star_s = co_nullity(matroid, ground)
        witness = first_failing_J(
            family, lambda J: co_nullity(matroid, meet_of(family, J)) + len(J) > nu_star_s
        )
        assert_verdict(avoid_rado_check(matroid, family), witness)


def recursive_augment(adj, owner, u, seen):
    """The depth-first augmenting search with one call per path edge."""
    for v in range(len(owner)):
        bit = 1 << v
        if adj[u] & bit and not seen & bit:
            seen |= bit
            if owner[v] < 0:
                owner[v] = u
                return True, seen
            ok, seen = recursive_augment(adj, owner, owner[v], seen)
            if ok:
                owner[v] = u
                return True, seen
    return False, seen


def test_matching_matches_the_recursive_search_on_seeded_families():
    # The Hall families of the test below.  The recursive search, run
    # left to right, decides which vertices can join: maximum_matching
    # matches exactly those before the first it cannot augment, each to
    # an adjacent right vertex, none used twice.
    from qtransversal.classical import maximum_matching

    rng = random.Random(22)
    stopped = 0
    for _ in range(2000):
        width = rng.randint(0, 8)
        density = rng.random()
        adj = [
            sum(1 << v for v in range(width) if rng.random() < density)
            for _ in range(rng.randint(0, 9))
        ]
        reference = [-1] * width
        joined = 0
        while joined < len(adj) and recursive_augment(adj, reference, joined, 0)[0]:
            joined += 1
        stopped += joined < len(adj)
        match = maximum_matching(adj, width)
        assert len(match) == len(adj)
        assert all(v >= 0 for v in match[:joined])
        assert all(v == -1 for v in match[joined:])
        assert all(adj[u] >> v & 1 for u, v in enumerate(match[:joined]))
        assert len(set(match[:joined])) == joined
    assert stopped > 500, stopped


def test_matching_leaves_later_vertices_unmatched_after_the_first_failure():
    # Left vertex 1 reaches only right vertex 0, which vertex 0 holds;
    # vertex 2 could still take right vertex 1, but the search stopped at 1.
    from qtransversal.classical import maximum_matching

    assert maximum_matching([0b01, 0b01, 0b10], 2) == [0, -1, -1]
    assert maximum_matching([0b01, 0b10], 2) == [0, 1]


def seeded_families(rng, count):
    """count families of up to 9 members on up to 8 labels "a".."h", each
    member holding each label at one density drawn per family."""
    for _ in range(count):
        ground = tuple("abcdefgh"[: rng.randint(0, 8)])
        density = rng.random()
        members = [
            frozenset(x for x in ground if rng.random() < density)
            for _ in range(rng.randint(0, 9))
        ]
        yield SetFamily(ground, tuple(members))


def rado_oracles(matroid, family):
    """The first failing J of Rado and of avoidance Rado, by the per-J loop,
    with each rank and co-nullity read once per distinct set."""
    rank, co = {}, {}
    nu_star_s = co_nullity(matroid, family.ground)

    def rado_fails(J):
        union = union_of(family, J)
        if union not in rank:
            rank[union] = matroid.rank(union)
        return rank[union] < len(J)

    def avoid_fails(J):
        meet = meet_of(family, J)
        if meet not in co:
            co[meet] = co_nullity(matroid, meet)
        return co[meet] + len(J) > nu_star_s

    return first_failing_J(family, rado_fails), first_failing_J(family, avoid_fails)


def test_hall_and_avoid_rado_match_the_first_failing_mask_on_seeded_families():
    # About 2,000 families of up to 9 members on up to 8 labels, with the
    # free matroid or a linear one over GF(2) or GF(3) of up to 4 rows.
    # Hall, Rado and avoidance Rado each name the per-J loop's first
    # failing mask, or pass with it.
    rng = random.Random(22)
    failing = {"hall": 0, "rado": 0, "avoid": 0}
    for family in seeded_families(rng, 2000):
        ground = family.ground
        witness = first_failing_J(family, lambda J: len(union_of(family, J)) < len(J))
        failing["hall"] += witness is not None
        assert_verdict(hall_check(family), witness)
        matroid = ClassicalMatroid.free(ground)
        if ground and rng.random() < 0.5:
            q = rng.choice([2, 3])
            rows = rng.randint(1, 4)
            columns = [tuple(rng.randrange(q) for _ in range(rows)) for _ in ground]
            matroid = ClassicalMatroid.linear(ground, field_make(q, 1), columns)
        rado_witness, avoid_witness = rado_oracles(matroid, family)
        failing["rado"] += rado_witness is not None
        failing["avoid"] += avoid_witness is not None
        assert_verdict(rado_check(matroid, family), rado_witness)
        assert_verdict(avoid_rado_check(matroid, family), avoid_witness)
    assert all(count > 500 for count in failing.values()), failing


def test_rado_checks_match_the_first_failing_mask_on_all_small_pairs():
    # Every family of at most 3 members over 3 labels against the free
    # matroid and each of the 64 column matroids of a 2 x 3 matrix over
    # GF(2): 38,025 pairs.  Each matroid's ranks are tabulated once.
    ground = tuple("abc")
    gf2 = field_make(2, 1)
    vectors = list(itertools.product(range(2), repeat=2))
    subsets = [frozenset(s) for k in range(4) for s in itertools.combinations(ground, k)]
    matroids = []
    for m in [ClassicalMatroid.free(ground)] + [
        ClassicalMatroid.linear(ground, gf2, columns)
        for columns in itertools.product(vectors, repeat=3)
    ]:
        table = {s: m.rank(s) for s in subsets}
        matroids.append(ClassicalMatroid(ground, table.__getitem__, m.provenance))
    families = list(all_families(ground, 3))
    assert len(matroids) * len(families) == 38_025
    for matroid in matroids:
        for family in families:
            rado_witness, avoid_witness = rado_oracles(matroid, family)
            assert_verdict(rado_check(matroid, family), rado_witness)
            assert_verdict(avoid_rado_check(matroid, family), avoid_witness)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(labeled_families(), st.data())
def test_avoiding_transversal_check_matches_the_per_J_loop(family, data):
    t = frozenset(data.draw(st.sets(st.sampled_from(family.ground))) if family.ground else ())
    n = len(family)
    witness = first_failing_J(family, lambda J: len(t & meet_of(family, J)) + len(J) > n)
    assert avoiding_transversal_check(t, family) == (witness is None)


def test_j_checks_match_the_per_J_loop_on_nine_members():
    # Nine 3-label members over 7 labels: Hall first fails at member 8.
    ground = tuple("abcdefg")
    family = SetFamily(
        ground,
        tuple(frozenset(ground[(3 * i + k) % 7] for k in range(3)) for i in range(9)),
    )
    witness = first_failing_J(family, lambda J: len(union_of(family, J)) < len(J))
    assert witness is not None
    assert_verdict(hall_check(family), witness)
    t = frozenset("abc")
    witness = first_failing_J(family, lambda J: len(t & meet_of(family, J)) + len(J) > 9)
    assert avoiding_transversal_check(t, family) == (witness is None)


def test_j_checks_stop_at_the_first_failing_J():
    # 2^40 index sets: the checks must stop at J = (1, 2) without walking
    # them.
    family = SetFamily(("a", "b"), (frozenset("a"),) * 40)
    assert hall_check(family) == (False, (1, 2))
    assert rado_check(ClassicalMatroid.free(family.ground), family) == (False, (1, 2))


def test_rado_checks_answer_on_40_members():
    # No check walks the 2^n index sets J, so families of 40 members are
    # decided, passing ones included.
    def singletons(n):
        labels = tuple(f"x{i}" for i in range(n))
        return SetFamily(labels, tuple(frozenset({x}) for x in labels))

    def empties(ground, n):
        return SetFamily(ground, (frozenset(),) * n)

    for n in (9, 40):
        ground = singletons(n).ground
        assert rado_check(ClassicalMatroid.free(ground), singletons(n)).ok
        assert avoid_rado_check(ClassicalMatroid.free(ground), empties(ground, n)).ok
    seven = SetFamily(tuple("abcdefg"), (frozenset("abcdefg"),) * 40)
    assert rado_check(ClassicalMatroid.free(seven.ground), seven) == (False, tuple(range(1, 9)))
    family = SetFamily(("a", "b"), (frozenset(),) * 3 + (frozenset("ab"),) * 37)
    free = ClassicalMatroid.free(family.ground)
    assert avoid_rado_check(free, empties(family.ground, 40)) == (False, (1, 2, 3))
    assert hall_check(singletons(40)).ok
    assert avoiding_transversal_check(set(), empties(("a",), 40))
    assert avoiding_transversal_check({"a"}, empties(("a",), 40))
    nine = SetFamily(tuple("abcdefghi"), (frozenset("abcdefghi"),) * 11)
    assert hall_check(nine) == (False, tuple(range(1, 11)))
    assert hall_check(family) == (False, (1,))


def test_the_augmenting_search_rejects_an_oracle_that_contradicts_itself():
    # The oracle accepts member 1's label while the search runs and then
    # rejects it: the check after augmenting raises.
    from qtransversal import InvariantViolation
    from qtransversal.classical import _first_failing

    answers = iter([True, False])
    with pytest.raises(InvariantViolation, match="member 1's search left held = 0b1 dependent"):
        _first_failing([0b1], 1, lambda mask: next(answers))


def test_the_search_asks_the_oracle_once_about_a_dependent_first_label():
    # Labels 0 and 1 are parallel.  Member 2's only label, 1, is dependent
    # on member 1's, found so before its search runs; the search goes on
    # to 1's circuit without asking about held | 1 again.
    from qtransversal.classical import _first_failing

    asked = []

    def parallel(mask):
        asked.append(mask)
        return mask.bit_count() <= 1

    verdict, owner = _first_failing([0b01, 0b10], 2, parallel)
    assert verdict == (False, (1, 2)) and owner == [0, -1]
    assert asked.count(0b11) == 1
