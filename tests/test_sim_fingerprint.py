"""The simulated substrate's results, pinned to the bit.

``PARENT`` holds, for each of the seven
``tests/test_differential.py::_app_case`` instances, the run of
``FluminaRuntime(prog, plan, checkpoint_predicate=every_root_join(),
record_keys=True).run(streams)``.  The simulator is deterministic, so
any change to the protocol's message order, to the producer schedule
(heartbeat grid included) or to the cost model moves at least one of
them — virtual time is the most sensitive schedule detector the repo
has.

Lists are held as the SHA-256 of their ``repr`` (floats ``repr``
exactly, dicts in insertion order), scalars verbatim.  The output log
(virtual emit order) and the keyed output log (worker by worker, as
every substrate merges its workers' reports) hold the same multiset;
each order is pinned by its own digest.

The second table, ``ENGINE_PARENT``, pins the Flink-like, Timely-like
and Flumina engines the same way through every runner factory of
:mod:`repro.bench.experiments` (each variant, at two offered rates):
the figures and Table 1 reach the engines only through these, and read
only the fields pinned here.  Its Flink-like and Timely-like rows were
captured before the three engines shared one run record
(``repro.sim.SimRun``).  ``PARENT`` and the three ``flumina_*`` rows
were re-captured once when each simulated worker became a one-worker
place of the production worker loop (``repro.runtime.process._Place``):
a place sends what one handled batch posts to a worker as one message,
so fewer, larger messages cross the simulated network.
"""

import hashlib
from collections import Counter

import pytest

from repro.bench import experiments
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
        (303, 36, 19968, 2880),
        3,
        3,
        "7bf3c62099a18317ae144ff6839e831e0ce11d4b10938d7477341a11a3b9bf9e",
        "e8fdcd982fc5f20d22ecc61429d50e6dbecca4d7beb09e28e6a257605def1710",
        "d1e03099498faed9092fcaa8dc7f8e4fe59b3f7bf7f666ed3101f8c00fdd0f0e",
        "064288bede0d6de08aaade9eec543a6b68307e855629d9c10592159bb938f59e",
    ),
    "fraud": (
        9.717000000000004,
        6,
        228,
        (303, 36, 20160, 3072),
        6,
        3,
        "8a13ad12e1d29911ad00ba499ac6aaf065ffaef384d98a6ee398c6570ab5dd00",
        "ee3d4a077ead0aab52045a451235b221a48eabdda0f5c07b971c63c5948857ae",
        "efa4a68fcb41afec135fdac99c2acfbe7d8e8657078a1d6d96d4d4f01f36f566",
        "88823850b065e4a6cf3b87e03651e92dfac751d1a31f7895b58863d3df6b72c2",
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
        "f738f70f6329d4d97391e40746d567ecda6407cb5a22fb30731306bfe58dc1b4",
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
        "d3840086459678c49680b0d3db24c7e520f68a551c05d514003d2fe68050e98d",
    ),
    "outlier": (
        8.419699999999999,
        2,
        62,
        (96, 12, 6592, 1216),
        0,
        2,
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "0389709e0bf31363737424daf5e5c86748121094be27857a0ced58771603a9d8",
        "2ae6646723a86a6dd6c3a7fe6cbe34b0c9acf2828faef65708ccac15016edc6e",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "smarthome": (
        6.209499999999999,
        2,
        82,
        (108, 10, 7616, 1312),
        35,
        2,
        "879d80f46e533e0a5e613a9b4eb43c6b950373876f0d302caa3ad7270e923dde",
        "fcaf0b2d5e5bbd62deaf4ca7cfc18c626b5d6daeb0e0068b32ecf2042a530ce4",
        "f5ffc1ede54db527316d7cd161185875eb3ae70a382727d47c66463544165c76",
        "fac68df1ce0ac879928a34a39676208f019c5ae8ec986aeb01922bd0b1f269bb",
    ),
    "sessionize": (
        10.517000000000005,
        8,
        64,
        (154, 46, 10672, 3632),
        29,
        4,
        "e2a6e1403a79181627b72e31611f4605fc96f90e9a5c34dbe6d14249eb134cfb",
        "3342502a623627f379c2610d868c9eb54afb4bfd99dc603e73a02fe738cdd319",
        "43cc46a862a640f9de20f2815c8fe3022d0de1c69e61d32e404c29ebb8b1312f",
        "76d55568f1bb25d0b6193e6cceafa09ecddc8afc1b7da33b3e54823a2d603b55",
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
    # The output log runs in virtual emit order, the keyed log worker by
    # worker: the same multiset, each sequence pinned by its digest.
    assert Counter(map(repr, res.output_values())) == Counter(
        repr(v) for _k, v in res.keyed_outputs
    )


# -- The three engines through the figure factories ----------------------

#: Every runner factory of :mod:`repro.bench.experiments` (the figures'
#: and Table 1's only way into the engines), each variant once.
ENGINE_FACTORIES = {
    "flink_event_window": lambda p: experiments.flink_event_window(p),
    "flink_event_window_sequential": lambda p: experiments.flink_event_window(
        p, mode="sequential"
    ),
    "flink_fraud": lambda p: experiments.flink_fraud(p),
    "flink_fraud_splan": lambda p: experiments.flink_fraud_splan(p),
    "flink_pageview": lambda p: experiments.flink_pageview(p),
    "flink_pageview_splan": lambda p: experiments.flink_pageview_splan(p),
    "timely_event_window": lambda p: experiments.timely_event_window(p),
    "timely_fraud": lambda p: experiments.timely_fraud(p),
    "timely_pageview": lambda p: experiments.timely_pageview(p),
    "timely_pageview_manual": lambda p: experiments.timely_pageview(p, manual=True),
    "flumina_event_window": lambda p: experiments.flumina_event_window(p),
    "flumina_fraud": lambda p: experiments.flumina_fraud(p),
    "flumina_pageview": lambda p: experiments.flumina_pageview(p),
}

ENGINE_PARALLELISM = 3
ENGINE_RATES = (40.0, 400.0)


def _engine_fingerprint(factory, rate):
    res = ENGINE_FACTORIES[factory](ENGINE_PARALLELISM)(rate)
    net = res.network
    return (
        res.duration_ms,
        res.events_in,
        (net.local_messages, net.remote_messages, net.local_bytes, net.remote_bytes),
        res.throughput_events_per_ms,
        res.input_span_ms,
        res.latency_percentiles(),
        _digest(res.outputs),
        _digest(sorted(res.host_utilization.items())),
    )


#: (factory, rate) -> (duration_ms, events_in, network (as above),
#: throughput_events_per_ms, input_span_ms, latency_percentiles(), then
#: the digests of outputs [(value, emit time, latency)] and
#: host_utilization (sorted items)), at parallelism 3.
ENGINE_PARENT = {
    ('flink_event_window', 40.0): (
        39.908500000000004,
        4503,
        (4634, 4707, 296576, 301248),
        112.83310572935589,
        38.5,
        [0.6143999999999984, 0.6143999999999998, 0.654880000000005],
        '94e21a1d7ed5aacf00f37dcdf61de4c9801c1d175d5753c6e56efa2659f8976a',
        '9caf6656675506e91ff31bc4ba851032d7b58ce280b2566f551b5876d28fd1c6',
    ),
    ('flink_event_window', 400.0): (
        8.179500000000033,
        4503,
        (4690, 4791, 300160, 306624),
        550.5226480836214,
        4.75,
        [3.594600000000046, 4.255000000000098, 4.567160000000105],
        '8f61354c126c1a07814e98159125e1c2880747b8fc0b35ccda9161f49de6d02c',
        '149d8d2d214e705271c63bb2bb6295ba1ecd5774bf199b3180eed06467ff44f5',
    ),
    ('flink_event_window_sequential', 40.0): (
        39.9055,
        4503,
        (1567, 7695, 100288, 492480),
        112.84158825224593,
        38.5,
        [0.42039999999999933, 0.4204000000000008, 0.608480000000003],
        '5d38281ef0e0e46b07f3a698a97709e05d891a211ec188c5fc175a94c8a2c9c4',
        'a9cd267d9e7fdaeecf5eec024502b182f7986e79554d718dcef7f70d288e89ea',
    ),
    ('flink_event_window_sequential', 400.0): (
        17.16720000000007,
        4503,
        (1595, 7779, 102080, 497856),
        262.3025304068213,
        4.75,
        [12.456300000000205, 12.646700000000667, 12.800300000000501],
        'a94b4865367f8011bfec287c092f7b6632be68211dc3330c12805a6a4999a0ae',
        '6621a89342a60438354e1f0baa2714127ee5d765e89f3ed2acbbab5a9e14cdcf',
    ),
    ('flink_fraud', 40.0): (
        39.9055,
        4503,
        (1567, 7695, 100288, 492480),
        112.84158825224593,
        38.5,
        [0.42040000000000044, 0.4554999999999998, 0.6146199999999993],
        '6ce91ea4d7ef24e684578158bae9db0f3496655fe1f75e5e53cb39ffd7547627',
        'a9cd267d9e7fdaeecf5eec024502b182f7986e79554d718dcef7f70d288e89ea',
    ),
    ('flink_fraud', 400.0): (
        17.16720000000007,
        4503,
        (1595, 7779, 102080, 497856),
        262.3025304068213,
        4.75,
        [0.5221999999999962, 12.446700000000089, 12.685100000000626],
        'b0409b78bfb3887f04f16e4f88ca8e2d767a43fc97a8660d9541afa169b381bf',
        '6621a89342a60438354e1f0baa2714127ee5d765e89f3ed2acbbab5a9e14cdcf',
    ),
    ('flink_fraud_splan', 40.0): (
        39.9095,
        4503,
        (4678, 4713, 299440, 301728),
        112.83027850511783,
        38.5,
        [0.5776199999999987, 0.6445000000000001, 0.7943999999999989],
        'bf2d95412ef7c56f01fe891f1d46373e350dae2e67c61c1f28f33f12ef33e6ab',
        '654d74e9bc26d4055de5795887347aff65ff2f6f447bd5e3e9d6d404484a0305',
    ),
    ('flink_fraud_splan', 400.0): (
        8.852300000000135,
        4503,
        (4748, 4797, 303920, 307104),
        508.68135964663776,
        4.75,
        [0.7465599999999938, 3.726600000000137, 4.937560000000122],
        'bfedd1f81cac8b7884f4e1175233b1ddd382a42012441997e08e91b7cdd1e2d4',
        '369e76948eaf5db6035de5b6fdb23ccb9741a7313edaeedfafee609080f5401b',
    ),
    ('flink_pageview', 40.0): (
        39.92835714285715,
        4506,
        (3131, 6393, 200384, 409152),
        112.85212621892423,
        38.517857142857146,
        [0.6396428571428565, 0.641414285714287, 0.6432000000000055],
        'c00138768045efc7c3af8462ee484d7261212e9a49b9c1b01daf0ece5a554b9d',
        'e9bfb744d35770e462d6c999fb707c80e62200eb413edaf8bb95b3ed93088865',
    ),
    ('flink_pageview', 400.0): (
        12.83540000000102,
        4506,
        (3188, 6564, 204032, 420096),
        351.0603487230349,
        4.751785714285714,
        [4.504914285714391, 6.357442857143226, 8.192971428572264],
        'c363601541c7e705c410bedfac6586148508ad40baf8edd18419ef092b9f9f8a',
        'fbeb73b7b7417b41f07349e23f8bac833d528074795ed7e5ff32060ba4c27096',
    ),
    ('flink_pageview_splan', 40.0): (
        39.92735714285715,
        4506,
        (4690, 4722, 300208, 302304),
        112.85495265508968,
        38.517857142857146,
        [0.6254285714285723, 0.6401142857142883, 0.6696285714285892],
        '13dd04793e24a39fd3d103faae4114439518cd6a6b525b6c37351670412642a8',
        '505dcd1a2f41611fcc3cb0e66cef74255c9f2eeadfc924616ab898e49bf44028',
    ),
    ('flink_pageview_splan', 400.0): (
        9.282200000000149,
        4506,
        (4762, 4809, 304816, 307872),
        485.44526082178015,
        4.751785714285714,
        [4.1413928571430105, 4.981192857143012, 5.88324285714296],
        '69efcb57426e816f2c57fbde865808836d4a0f809c7545089de66e25c4502cd9',
        '6feb5231da46a7d49f3eb58deace0542bfd3467056932151bb833e43e9d1d995',
    ),
    ('timely_event_window', 40.0): (
        39.911,
        4500,
        (3, 15, 192, 288384),
        112.75087068727919,
        38.5,
        [1.4109999999999971, 1.4110000000000014, 1.4110000000000014],
        'd1657f58c031e0e52eed51ef2f5a44434301b67b07095d67cd03ab22c744edfe',
        'f4d1acc88b7a39a6695b4e95d1769c6f5013fdaa08a7e34e3b4af86954f8b0f4',
    ),
    ('timely_event_window', 400.0): (
        6.161,
        4500,
        (3, 15, 192, 288384),
        730.4009089433534,
        4.75,
        [1.4109999999999996, 1.4109999999999996, 1.411],
        'c437f815df24e97c1f5a62546896d655554ef260b9dc330ff759ba4d380680df',
        '02197e6194535d83f7ee20943e717bb731f5d3796f38c830ab768208080e45b1',
    ),
    ('timely_fraud', 40.0): (
        40.118,
        4500,
        (6, 21, 384, 288768),
        112.16910115160276,
        38.5,
        [1.2019999999999982, 1.2020000000000053, 1.4110000000000014],
        '006d3dfbe76a33328d2e6ade09fb0b2e77cdfac18b9db79441dca84958eea8b1',
        'e4c46b144a91b5bfe88a670ec5f1362d95f7e9d873532b99ad31768b211afe3d',
    ),
    ('timely_fraud', 400.0): (
        6.371999999999999,
        4500,
        (6, 21, 384, 288768),
        706.2146892655369,
        4.75,
        [1.202, 1.2059999999999995, 1.4149999999999991],
        '1494831c67ab21f9ad995155dbbb6c2a04081862c0f1b1c5b5045639ee845774',
        'd3cc328ef4945f52ec8625a62d16f15c0da0c25646bf0f31e745b7f3c94c2957',
    ),
    ('timely_pageview', 40.0): (
        41.734285714285726,
        4506,
        (18, 54, 192768, 386880),
        107.96878209077836,
        38.51428571428571,
        [2.220000000000004, 2.723000000000007, 3.2289999999999965],
        '7c0b94c25abf1e61eeadf9b61f2ad6b4f9d2e81ba2593cb56c90da4c0236d5c5',
        '741883cdaff546e7e088d2aa9ef598ca45cec90336a7a5cd9ad5eb7fb27ee7c9',
    ),
    ('timely_pageview', 400.0): (
        11.529428571428573,
        4506,
        (18, 54, 192768, 386880),
        390.82596089510065,
        4.751428571428572,
        [2.728999999999999, 4.487999999999998, 6.9],
        'b8366ca3dd3dd795cde57c990d7891e0a99c5aca240016fcc34dc3c316780b66',
        '936925ac5ab8b6cf9d5be4bc8970114c0807ad932c56c0f777b733944b3b6302',
    ),
    ('timely_pageview_manual', 40.0): (
        39.92928571428572,
        4506,
        (9, 36, 768, 290304),
        112.84950179782113,
        38.51428571428571,
        [1.4100000000000037, 1.4140000000000033, 1.4179999999999984],
        '887de425fb7b51fcd01efa699c0f96071881c30cadb4db36d2e6751a45e26aa6',
        'd87338d5d1957baf7f87411b9a6f46137cbf38a4dd9e796838a98432f7c2b1d8',
    ),
    ('timely_pageview_manual', 400.0): (
        6.166428571428573,
        4506,
        (9, 36, 768, 290304),
        730.7309162515926,
        4.751428571428572,
        [1.4099999999999995, 1.4140000000000004, 1.4180000000000001],
        '80216b559fc4609669aba88fb03bbe36a982786be08b6b7870fbb894a6c1f004',
        '969b963740efd99b3c3ac45566d8667309cfa9cf3bf12e65b6fdc4e3376da3a4',
    ),
    ('flumina_event_window', 40.0): (
        39.71700000000002,
        4503,
        (4713, 82, 302208, 5824),
        116.32052076875382,
        37.495,
        [0.44239999999999713, 0.4424000000000028, 0.4653600000000061],
        'eacc7a348e9dcb574bfca6f5bc4ca9d469404080f1a01adf4a11bb7b91532e81',
        '3aeb7157b5b76f4525d7a581fe7f29bd630e7ec31aef44eddb25cbc78c519b16',
    ),
    ('flumina_event_window', 400.0): (
        7.6890999999997485,
        4503,
        (4711, 55, 302144, 4160),
        673.2350566636021,
        3.7495000000000003,
        [2.882219999999748, 3.525099999999747, 4.169979999999747],
        '08754e33f5e3e60ccf6fdc314b34c48c078e8ee317506f033c697eeb464316f1',
        'a5f957e2786a8e0bdd9c5e7aadf7d4810bea92b9113b2fa3631aec3a8006590e',
    ),
    ('flumina_fraud', 40.0): (
        39.71700000000002,
        4503,
        (4713, 82, 302400, 6016),
        116.32052076875382,
        37.495,
        [0.3939600000000075, 0.4444999999999999, 0.6039200000000051],
        '860f710ba2c55660c5838c9f5c0cb0acf4f8044c99b8a186b333c034f3a9d70d',
        '5fc11cf7dd3a09a412113f15f54468a549b1602904d8ee7525bd6c70d58e3d04',
    ),
    ('flumina_fraud', 400.0): (
        7.691899999999743,
        4503,
        (4711, 55, 302336, 4352),
        672.9533430971355,
        3.7495000000000003,
        [0.5464600000000068, 2.526299999999744, 3.6877599999997446],
        '1cf5cf5c76eb178847322ac30adb3a0bcc1b8a78aba6c27376ee9bd46ed01f84',
        '86d3364499b0cff2212a11121c9abb8944c654c31a584eda035b557515f3978e',
    ),
    ('flumina_pageview', 40.0): (
        39.72735714285716,
        4506,
        (4707, 41, 301520, 2896),
        116.36258999175473,
        37.51428571428572,
        [0.022885714285715508, 0.32947142857142975, 0.43425714285714534],
        '6eb90ff24e2837081453c669419152e1ee519bccbbc9e9eee6da3cb55b9842e3',
        'b49146d24a73d3a6979fd8ef4dec82dcba4ff1114b7a1b1cfd1ea6c1a1df5589',
    ),
    ('flumina_pageview', 400.0): (
        7.301371428571197,
        4506,
        (4739, 33, 303696, 2512),
        715.1229620628235,
        3.751428571428571,
        [0.8568142857142831, 2.0193285714283387, 3.302557142856952],
        'c397dc5cf125773e415ff49f5fdaa373b88177602995df0a7978e9223674cec8',
        '63804aa8c6f1905f5c5a233885cf273865607e88c86ccea571169686eeaf0bc2',
    ),
}


def test_engine_fingerprint_covers_every_factory():
    assert set(ENGINE_PARENT) == {(f, r) for f in ENGINE_FACTORIES for r in ENGINE_RATES}


@pytest.mark.parametrize("factory, rate", sorted(ENGINE_PARENT))
def test_engine_results_match_parent_to_the_bit(factory, rate):
    assert _engine_fingerprint(factory, rate) == ENGINE_PARENT[factory, rate]
