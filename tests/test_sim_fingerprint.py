"""The simulated substrate's results, pinned to the bit.

The values below were captured at the commit *before* the simulator
switched from its own copy of the worker protocol (``WorkerActor``) to
driving the shared :class:`~repro.runtime.protocol.WorkerCore`: for
each of the seven ``tests/test_differential.py::_app_case`` instances,
run as ``FluminaRuntime(prog, plan, checkpoint_predicate=
every_root_join(), record_keys=True).run(streams)``.  The simulator is
deterministic, so any change to the protocol's message order, to the
producer schedule (heartbeat grid included) or to the cost model moves
at least one of them — virtual time is the most sensitive schedule
detector the repo has.

Lists are held as the SHA-256 of their ``repr`` (floats ``repr``
exactly, dicts in insertion order), scalars verbatim.  The one
deliberate difference from the capture: ``events_processed`` counts a
synchronizing event once (at its update), so it equals ``events_in``.
"""

import hashlib

import pytest

from repro.runtime import FluminaRuntime, every_root_join

from test_differential import ALL_APPS, _app_case


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


#: app -> (duration_ms, joins, events_in, network (local msgs, remote
#: msgs, local bytes, remote bytes), n_outputs, n_checkpoints, then the
#: digests of outputs [(value, emit time, latency)], host_utilization
#: (sorted items), checkpoints, keyed_outputs).
PARENT = {
    "value_barrier": (
        9.717000000000004,
        6,
        228,
        (309, 42, 19968, 2880),
        3,
        3,
        "a38dd67c7ea2e8a44b2907e2bef25e7a3ddc67eff3102841017c2b3d1bdfef4c",
        "c8d8d049bcd499dad92d7242a8e1a40a886a2bf7b583af4c9c82733b65f86954",
        "d1e03099498faed9092fcaa8dc7f8e4fe59b3f7bf7f666ed3101f8c00fdd0f0e",
        "064288bede0d6de08aaade9eec543a6b68307e855629d9c10592159bb938f59e",
    ),
    "fraud": (
        9.717000000000004,
        6,
        228,
        (309, 42, 20160, 3072),
        6,
        3,
        "68e621a2614b89ac0f3bb3496df624cd004a2ec987b749f76d78695a66de7cb7",
        "42e904830adf782bb2c8b17f0b6bfe6568d9721c4b55d837bb1b69324488e706",
        "efa4a68fcb41afec135fdac99c2acfbe7d8e8657078a1d6d96d4d4f01f36f566",
        "c0e3240af545d16cb3c2c5775b344c7329944456904fa33327e4a7c829e5f049",
    ),
    "pageview": (
        8.072666666666668,
        0,
        126,
        (162, 0, 10368, 0),
        6,
        0,
        "700a96f87c06be3754b8ad7fe8e24993e79f37f529948568d7a27efeca649bb1",
        "4e87c0eb2384c60b40e1caf5d8b75c9f767350a6fabc6a4bd641b8a299c7eb90",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "a6549dca63c3fc1b6ac36c7bed108e8810d2b32fc6efa45b86d2a123e6d4e77e",
    ),
    "keycounter": (
        60.00600000000001,
        0,
        59,
        (96, 0, 6144, 0),
        24,
        0,
        "7e41cf876a6f1f48d4e9f7f99d887f0125e7696f315652d28c75ecf9c6cf794b",
        "f630c659327fa6949578cb8ac4460b0022567675206a85c970d1faf953de3d37",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "c1c90e8562227e300792f345a1fe1fd6d5b2b5609552d22aea164ddbd1c454ef",
    ),
    "outlier": (
        8.419699999999999,
        2,
        62,
        (98, 14, 6592, 1216),
        0,
        2,
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "ee1338c5a1545b1ffa18ef29133ce53bdaccbd77ea521447454510cc7c1213a9",
        "2ae6646723a86a6dd6c3a7fe6cbe34b0c9acf2828faef65708ccac15016edc6e",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "smarthome": (
        6.209499999999999,
        2,
        82,
        (110, 12, 7616, 1312),
        35,
        2,
        "24f2ac8add682a614200b63bc851b0967402ff884da238c6b80b5f25c54723cb",
        "23b0189d0e1bdd0c17c686db439cdf3f11f335face0fe0d07e2a274874efbe76",
        "f5ffc1ede54db527316d7cd161185875eb3ae70a382727d47c66463544165c76",
        "fac68df1ce0ac879928a34a39676208f019c5ae8ec986aeb01922bd0b1f269bb",
    ),
    "sessionize": (
        10.517000000000005,
        8,
        64,
        (162, 54, 10672, 3632),
        29,
        4,
        "0fbf550392dfd85ca8203d79b9b745009ef89d2b308219e753c69308f1415603",
        "1e61722570d85649e8603ce753681e7243bbd17d2249a580b0ada8bce99241c3",
        "43cc46a862a640f9de20f2815c8fe3022d0de1c69e61d32e404c29ebb8b1312f",
        "d2c30d1ae9bdd7a1e937cfb76875b8437316ccf6f41ac67871585bcb1e2b96bd",
    ),
}


def test_fingerprint_covers_the_differential_matrix():
    assert set(PARENT) == set(ALL_APPS)


@pytest.mark.parametrize("app", ALL_APPS)
def test_sim_results_match_parent_to_the_bit(app):
    prog, streams, plan = _app_case(app)
    res = FluminaRuntime(
        prog, plan, checkpoint_predicate=every_root_join(), record_keys=True
    ).run(streams)
    net = res.network
    got = (
        res.duration_ms,
        res.joins,
        res.events_in,
        (net.local_messages, net.remote_messages, net.local_bytes, net.remote_bytes),
        len(res.outputs),
        len(res.checkpoints),
        _digest(res.outputs),
        _digest(sorted(res.host_utilization.items())),
        _digest(res.checkpoints),
        _digest(res.keyed_outputs),
    )
    assert got == PARENT[app]
    assert res.events_processed == res.events_in
    assert res.output_values() == [v for _k, v in res.keyed_outputs]
