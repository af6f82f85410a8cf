"""Property tests for the consistent-hash ring.

Three claims the fleet's rebalance protocol rests on, pushed through
hypothesis-generated topologies and keysets:

* **stable mapping** — ``node_for`` is a pure function of (node set,
  key): independent of insertion order and of unrelated churn;
* **balance bound** — with the default 256 vnodes, a uniform keyset
  spreads across workers with max/mean below ~1.35 (the bound
  ``ring.py`` documents and sizes its replica count for);
* **minimal movement** — adding a node moves keys only *to* it,
  removing one moves only *its* keys, and the moved fraction stays
  near 1/n instead of the ~(n-1)/n a mod-n scheme would churn.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.ring import HashRing

#: Small fleet sizes, like the real router's.
node_lists = st.lists(
    st.integers(min_value=0, max_value=99).map(lambda i: f"w{i}"),
    min_size=1, max_size=8, unique=True)

keys = st.lists(
    st.integers(min_value=0, max_value=10_000_000).map(
        lambda i: f"sess-{i}"),
    min_size=1, max_size=200, unique=True)


@given(nodes=node_lists, ks=keys, salt=st.integers(0, 7))
@settings(max_examples=60, deadline=None)
def test_mapping_is_stable_under_insertion_order_and_churn(
        nodes, ks, salt):
    ring_a = HashRing(nodes)
    # Same node set reached by a different history: reversed insertion
    # plus an unrelated node that comes and goes.
    ring_b = HashRing()
    ring_b.add_node(f"transient-{salt}")
    for node in reversed(nodes):
        ring_b.add_node(node)
    ring_b.remove_node(f"transient-{salt}")
    for key in ks:
        assert ring_a.node_for(key) == ring_b.node_for(key)


@given(n_nodes=st.integers(min_value=2, max_value=8),
       seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_uniform_keys_balance_within_the_documented_bound(n_nodes, seed):
    ring = HashRing([f"w{i}" for i in range(n_nodes)])
    uniform = [f"sess-{seed}-{i}" for i in range(3000)]
    counts = ring.distribution(uniform)
    mean = len(uniform) / n_nodes
    assert max(counts.values()) < 1.35 * mean
    assert min(counts.values()) > 0


@given(nodes=node_lists, ks=keys)
@settings(max_examples=60, deadline=None)
def test_adding_a_node_moves_keys_only_to_it(nodes, ks):
    ring = HashRing(nodes)
    before = {k: ring.node_for(k) for k in ks}
    newcomer = "newcomer"
    ring.add_node(newcomer)
    for key in ks:
        after = ring.node_for(key)
        assert after == before[key] or after == newcomer


@given(nodes=st.lists(
    st.integers(min_value=0, max_value=99).map(lambda i: f"w{i}"),
    min_size=2, max_size=8, unique=True), ks=keys)
@settings(max_examples=60, deadline=None)
def test_removing_a_node_strands_only_its_keys(nodes, ks):
    ring = HashRing(nodes)
    victim = nodes[0]
    before = {k: ring.node_for(k) for k in ks}
    ring.remove_node(victim)
    for key in ks:
        if before[key] != victim:
            assert ring.node_for(key) == before[key]


@given(n_nodes=st.integers(min_value=2, max_value=8),
       seed=st.integers(0, 100))
@settings(max_examples=20, deadline=None)
def test_growth_moves_roughly_one_over_n(n_nodes, seed):
    """The quantitative half of minimal movement: growing n → n+1
    remaps about 1/(n+1) of keys — generously bounded at 3× to stay
    flake-free — never the ~n/(n+1) of a mod-n scheme."""
    ring = HashRing([f"w{i}" for i in range(n_nodes)])
    uniform = [f"sess-{seed}-{i}" for i in range(2000)]
    before = {k: ring.node_for(k) for k in uniform}
    ring.add_node("grown")
    moved = sum(1 for k in uniform if ring.node_for(k) != before[k])
    expected = len(uniform) / (n_nodes + 1)
    assert moved < 3.0 * expected
