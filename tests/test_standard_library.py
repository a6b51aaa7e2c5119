"""The package runs on the standard library alone.

Two helpers stand in for what NumPy and NetworkX used to compute, and
each is held here to the library it replaced, which the test suite
still installs as an oracle:

* ``repro.runtime.metrics.percentiles`` returns, bit for bit up to
  the sign of a zero, what ``numpy.percentile`` returns with its
  default ``linear`` method;
* ``DependenceRelation.itag_components`` returns the components
  ``networkx.connected_components`` yields for the implementation-tag
  dependence graph, in NetworkX's order.

A fresh interpreter that imports every public entry point loads
neither library.
"""

import os
import struct
import subprocess
import sys
import textwrap

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DependenceRelation, ImplTag
from repro.runtime.metrics import percentiles


def _bits(x):
    # + 0.0 turns -0.0 into 0.0: NumPy's partition orders the two zeros
    # as it likes, so only the sign of a zero result may differ.
    return struct.pack("<d", x + 0.0)


values = st.floats(allow_nan=False, allow_infinity=False, width=64)
samples = st.one_of(
    st.lists(values, min_size=1, max_size=40),
    # Duplicates: a few distinct values, each repeated.
    st.lists(st.sampled_from([-1.5, -0.0, 0.0, 2.0, 1e300]), min_size=1, max_size=40),
    st.lists(st.integers(-1000, 1000).map(float), min_size=1, max_size=40),
)
quantiles = st.lists(
    st.one_of(
        st.sampled_from([0, 100, 0.0, 100.0, 50, 99.9, 12.5]),
        st.floats(0, 100, allow_nan=False),
        st.integers(0, 100),
    ),
    min_size=1,
    max_size=8,
)


class TestPercentilesMatchNumpy:
    @settings(max_examples=400, deadline=None)
    @given(samples, quantiles)
    def test_bit_for_bit(self, xs, qs):
        want = [float(p) for p in np.percentile(xs, qs)]
        assert [_bits(p) for p in percentiles(xs, qs)] == [_bits(p) for p in want]

    @settings(max_examples=100, deadline=None)
    @given(values, quantiles)
    def test_one_value(self, x, qs):
        want = [float(p) for p in np.percentile([x], qs)]
        assert [_bits(p) for p in percentiles([x], qs)] == [_bits(p) for p in want]

    def test_empty_is_nan_per_quantile(self):
        out = percentiles([], (10, 50, 90))
        assert len(out) == 3 and all(p != p for p in out)


def _nx_components(dep, itags):
    """The graph the plan code used to build, decomposed by NetworkX."""
    g = nx.Graph()
    g.add_nodes_from(itags)
    for i, a in enumerate(itags):
        for b in itags[i + 1 :]:
            if a != b and dep.itag_depends(a, b):
                g.add_edge(a, b)
    return list(nx.connected_components(g))


TAGS = ["a", "b", "c", "d", "e", "f"]


@st.composite
def relations_and_itags(draw):
    pairs = draw(st.lists(st.tuples(st.sampled_from(TAGS), st.sampled_from(TAGS)), max_size=10))
    adjacency = {}
    for x, y in pairs:  # (t, t) pairs make t self-dependent
        adjacency.setdefault(x, []).append(y)
    dep = DependenceRelation(TAGS, adjacency)
    itags = draw(
        st.lists(
            st.builds(ImplTag, st.sampled_from(TAGS), st.integers(0, 3)),
            max_size=16,
        )
    )
    return dep, itags


class TestComponentsMatchNetworkx:
    @settings(max_examples=300, deadline=None)
    @given(relations_and_itags())
    def test_same_components_in_the_same_order(self, case):
        dep, itags = case
        assert dep.itag_components(itags) == _nx_components(dep, itags)

    def test_self_dependent_tags_join_their_streams(self):
        dep = DependenceRelation(TAGS, {"a": ["a"], "b": ["c"]})
        itags = [ImplTag("c", 0), ImplTag("a", 0), ImplTag("d", 0)]
        itags += [ImplTag("a", 1), ImplTag("d", 1), ImplTag("b", 0)]
        assert dep.itag_components(itags) == [
            {ImplTag("c", 0), ImplTag("b", 0)},
            {ImplTag("a", 0), ImplTag("a", 1)},
            {ImplTag("d", 0)},
            {ImplTag("d", 1)},
        ]


def test_a_fresh_interpreter_loads_neither_numpy_nor_networkx():
    script = textwrap.dedent(
        """
        import sys
        import repro, repro.serve, repro.chaos, repro.bench
        print(sorted({"numpy", "networkx"} & set(sys.modules)))
        """
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
