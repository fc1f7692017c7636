"""Every routine that reads node ids from its caller rejects, with
UnsupportedInput, an id that is not an integer in 0..n-1: a float (2.0
included), a bool, alone or among ints in a list, a bool mask, -1 and n.
None of them truncates a float or reads a mask as the ids of its set
entries. The weights of hand-built tree edges are read by the same
integer rule."""

from fractions import Fraction

import numpy as np
import pytest

from friendlycuts.expander import certify_cluster, conductance, demand_conductance
from friendlycuts.generators import clique
from friendlycuts.gomory_hu import (
    GHTree,
    PartitionTree,
    build_sparsified_cag,
    gh_query,
    gomory_hu,
    validate_ghtree,
)
from friendlycuts.graph import (
    ContractionMap,
    Cut,
    Graph,
    Sparsifier,
    UnsupportedInput,
    cut_value,
    degree,
    is_friendly,
    proper_side_mask,
    volume,
)
from friendlycuts.isolating import isolating_cuts, isolating_cuts_direct, isolating_cuts_many
from friendlycuts.maxflow import max_flow, min_cut_between_sets, min_cuts_between_sets
from friendlycuts.sparsify import terminal_sparsify
from friendlycuts.ss_unfriendly import (
    approx_single_source,
    lemma_unfriendly_p,
    lemma_unfriendly_v,
    single_source_unfriendly,
)

G = clique(5)
N = G.n
ONE = Graph.build(1, [])  # conductance is 1 by convention, but the side is still read
TREE = gomory_hu(G)
CUT = Cut.of(G, [4])
TABLE = approx_single_source(G, 0)
PT = PartitionTree(classes=tuple(frozenset({v}) for v in range(N)), edges=TREE.edges)

# Each bad id, in scalar form and in set form. A set holds the bad id and
# node 3, so that a truncated float is read as a valid set of two nodes;
# the mask marks nodes 0 and 1, a valid set when read as ids. numpy reads
# a list of ints and bools as ints, so [True, 3] is the set {1, 3} once read.
BAD = {
    "0.5": (0.5, [0.5, 3]),
    "2.0": (2.0, [2.0, 3]),
    "bool": (True, np.array([True, True, False, False, False])),
    "bool in a list": (True, [True, 3]),
    "numpy bool in a list": (np.True_, [np.True_, 3]),
    "-1": (-1, [-1, 3]),
    "n": (N, [N, 3]),
}

SCALAR_INTAKES = {
    "degree": lambda v: degree(G, v),
    "max_flow source": lambda v: max_flow(G, v, 4),
    "max_flow sink": lambda v: max_flow(G, 4, v),
    "gh_query": lambda v: gh_query(TREE, v, 4),
    "approx_single_source": lambda v: approx_single_source(G, v),
    "single_source_unfriendly": lambda v: single_source_unfriendly(G, v),
    "EstimateTable.estimate": lambda v: TABLE.estimate(v),
    "EstimateTable.update": lambda v: TABLE.update(v, 1, Cut(side=frozenset({v}), value=1)),
    "lemma_unfriendly_v pivot": lambda v: lemma_unfriendly_v(G, v, 4, CUT),
    "lemma_unfriendly_p node": lambda v: lemma_unfriendly_p(G, 0, v, CUT),
    "build_sparsified_cag": lambda v: build_sparsified_cag(Sparsifier.identity(G), PT, v),
    "validate_ghtree endpoint": lambda v: validate_ghtree(
        G, GHTree(n=N, edges=((v, 4, 4),) + TREE.edges[1:])),
    "gh_query on a tree endpoint": lambda v: gh_query(
        GHTree(n=N, edges=((v, 4, 4),) + TREE.edges[1:]), 0, 4),
    "PartitionTree endpoint": lambda v: PartitionTree(
        classes=PT.classes, edges=((v, 4, 4),) + PT.edges[1:]),
}

SET_INTAKES = {
    "cut_value": lambda s: cut_value(G, s),
    "is_friendly": lambda s: is_friendly(G, s),
    "volume": lambda s: volume(G, s),
    "proper_side_mask": lambda s: proper_side_mask(G, s),
    "Cut.of": lambda s: Cut.of(G, s),
    "ContractionMap.from_classes": lambda s: ContractionMap.from_classes(N, [s]),
    "min_cut_between_sets a": lambda s: min_cut_between_sets(G, s, [4]),
    "min_cut_between_sets b": lambda s: min_cut_between_sets(G, [4], s),
    "min_cuts_between_sets": lambda s: min_cuts_between_sets(G, [([4], s)]),
    "isolating_cuts": lambda s: isolating_cuts(G, s),
    "isolating_cuts_many": lambda s: isolating_cuts_many(G, [[2, 4], s]),
    "isolating_cuts_direct": lambda s: isolating_cuts_direct(G, s),
    "terminal_sparsify": lambda s: terminal_sparsify(G, s, 2),
    "certify_cluster": lambda s: certify_cluster(G, s, Fraction(1, 10)),
    "conductance": lambda s: conductance(G, s),
    "demand_conductance": lambda s: demand_conductance(G, [1] * N, s),
    "conductance on one node": lambda s: conductance(ONE, s),
    "demand_conductance on one node": lambda s: demand_conductance(ONE, [1], s),
}

# labels and tree edge weights need not be node ids, so only the integer
# rule applies to them; a weight is read in scalar form
NOT_INTEGERS = ("0.5", "2.0", "bool", "bool in a list", "numpy bool in a list")
INTEGER_INTAKES = {
    "ContractionMap.from_labels": (ContractionMap.from_labels, 1),
    "gh_query on a tree weight": (
        lambda w: gh_query(GHTree(n=N, edges=((TREE.edges[0][:2] + (w,)),) + TREE.edges[1:]),
                           0, 4), 0),
    "validate_ghtree weight": (
        lambda w: validate_ghtree(
            G, GHTree(n=N, edges=((TREE.edges[0][:2] + (w,)),) + TREE.edges[1:])), 0),
}

CASES = ([(name, bad, fn, 0) for name, fn in SCALAR_INTAKES.items() for bad in BAD]
         + [(name, bad, fn, 1) for name, fn in SET_INTAKES.items() for bad in BAD]
         + [(name, bad, fn, form) for name, (fn, form) in INTEGER_INTAKES.items()
            for bad in NOT_INTEGERS])


@pytest.mark.parametrize("name, bad, intake, form", CASES,
                         ids=[f"{name}-{bad}" for name, bad, _, _ in CASES])
def test_every_intake_rejects_a_bad_node_id(name, bad, intake, form):
    with pytest.raises(UnsupportedInput):
        intake(BAD[bad][form])
