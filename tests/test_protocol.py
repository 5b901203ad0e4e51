import functools
import hashlib
import itertools
import operator
import random
import tracemalloc
from array import array

import pytest

from qkdnet import (
    CapExceededError,
    CompromiseScenario,
    Link,
    RoutingScheme,
    ValidationError,
    adversary_view,
    build_routing_scheme,
    enumerate_routes,
    link_attack_succeeds,
    make_segment,
    node_attack_succeeds,
    run_session,
    reconstruct_at_endpoint,
)
from qkdnet.protocol import (
    MAX_KEY_LEN,
    SessionTranscript,
    check_session,
    _concat_keys,
    _join_key_bytes,
    _keystream,
    _xor_keys,
)
from qkdnet.routes import Bundle


def session(n, c, key_len=32, seed=11):
    seg = make_segment(n, c)
    scheme = build_routing_scheme(seg)
    keys, transcript, final_key = run_session(seg, scheme, key_len, seed)
    return seg, scheme, keys, transcript, final_key


def segment_scheme(n, c):
    seg = make_segment(n, c)
    return seg, build_routing_scheme(seg)


def endpoint_keys(seg, keys):
    return {link: k for link, k in keys.link_keys.items() if link.dst == seg.n_nodes}


def test_session_6_2_shape():
    seg, scheme, keys, transcript, final_key = session(6, 2, key_len=128)
    assert len(transcript.messages) == 9  # one per link
    assert len(keys.route_keys) == 8
    for link, ciphertext in transcript.messages:
        nbits = len(scheme.per_link_bundles[link]) * 128
        assert 0 <= ciphertext < 1 << nbits


def test_session_serial_chain():
    seg, scheme, keys, transcript, final_key = session(3, 1)
    assert len(transcript.messages) == 2
    assert final_key == keys.route_keys[0]
    assert reconstruct_at_endpoint(seg, scheme, transcript, endpoint_keys(seg, keys)) == final_key


def test_final_key_is_xor_of_route_keys():
    seg, scheme, keys, transcript, final_key = session(6, 2)
    acc = 0
    for k in keys.route_keys:
        acc ^= k
    assert acc == final_key


# byte-aligned lengths take the byte path, the others the shift-or path
@pytest.mark.parametrize("key_len", [1, 7, 8, 9, 127, 128, 129, 1024])
@pytest.mark.parametrize("n,c", [(n, c) for n in range(3, 10) for c in range(1, min(n - 1, 4))])
def test_round_trip_all_small_segments(n, c, key_len):
    seg, scheme, keys, transcript, final_key = session(n, c, key_len=key_len, seed=n * 100 + c)
    assert reconstruct_at_endpoint(seg, scheme, transcript, endpoint_keys(seg, keys)) == final_key


def test_corrupted_ciphertext_changes_reconstruction():
    seg, scheme, keys, transcript, final_key = session(6, 2)
    messages = list(transcript.messages)
    # flip one bit of a message addressed to the endpoint
    for i, (link, ciphertext) in enumerate(messages):
        if link.dst == seg.n_nodes:
            messages[i] = (link, ciphertext ^ 1)
            break
    corrupted = SessionTranscript(messages=tuple(messages), key_len=transcript.key_len)
    assert reconstruct_at_endpoint(seg, scheme, corrupted, endpoint_keys(seg, keys)) != final_key


def test_reconstruct_rejects_missing_key():
    seg, scheme, keys, transcript, final_key = session(6, 2)
    with pytest.raises(ValidationError):
        reconstruct_at_endpoint(seg, scheme, transcript, {})


def test_segment_scheme_mismatch_rejected():
    seg = make_segment(6, 2)
    other = build_routing_scheme(make_segment(7, 2))
    with pytest.raises(ValidationError):
        run_session(seg, other, 8, 1)


def foreign_schemes(seg, scheme):
    """Schemes that build_routing_scheme did not make for ``seg``."""
    bundles = scheme.per_link_bundles
    yield RoutingScheme(seg, {link: tuple(b) for link, b in bundles.items()}, scheme.route_count)
    yield RoutingScheme(
        seg, {link: b for link, b in bundles.items() if link != (2, 4)}, scheme.route_count
    )
    yield RoutingScheme(  # Link(1.5, 2.5) in place of (2, 4)
        seg, {(Link(1.5, 2.5) if link == (2, 4) else link): b for link, b in bundles.items()},
        scheme.route_count,
    )
    yield build_routing_scheme(make_segment(seg.n_nodes + 1, seg.density))


SESSION_CALLS = {
    "run_session": lambda seg, scheme, keys, transcript: run_session(seg, scheme, 8, 1),
    "reconstruct_at_endpoint": lambda seg, scheme, keys, transcript: reconstruct_at_endpoint(
        seg, scheme, transcript, endpoint_keys(seg, keys)
    ),
    "adversary_view": lambda seg, scheme, keys, transcript: adversary_view(
        seg, scheme, CompromiseScenario.of(seg, nodes={3}, links={(2, 4)})
    ),
}


@pytest.mark.parametrize("call", SESSION_CALLS.values(), ids=SESSION_CALLS)
def test_session_functions_refuse_a_scheme_not_built_for_the_segment(call):
    # Each function reads links and bundles from the scheme alone, so it
    # must refuse tuple bundles, a dropped link and another segment's scheme.
    seg, scheme, keys, transcript, final_key = session(6, 2, key_len=8)
    for other in foreign_schemes(seg, scheme):
        with pytest.raises(ValidationError, match="routing scheme"):
            call(seg, other, keys, transcript)


def test_adversary_view_refuses_a_scenario_outside_the_segment():
    # Node 1 is not interior and (1, 4) is no link of (6, 2); a scenario
    # built without CompromiseScenario.of is checked as if built with it.
    seg, scheme = segment_scheme(6, 2)
    for scenario in [
        CompromiseScenario(frozenset({1}), frozenset()),
        CompromiseScenario(frozenset(), frozenset({Link(1, 4)})),
    ]:
        with pytest.raises(ValidationError):
            adversary_view(seg, scheme, scenario)


@pytest.mark.parametrize("key_len", [0, MAX_KEY_LEN + 1])
def test_reconstruct_rejects_transcript_key_len_out_of_range(key_len):
    seg, scheme, keys, transcript, final_key = session(6, 2, key_len=8)
    with pytest.raises(ValidationError, match=f"key_len must be in \\[1, {MAX_KEY_LEN}\\]"):
        reconstruct_at_endpoint(
            seg, scheme, transcript._replace(key_len=key_len), endpoint_keys(seg, keys)
        )


@pytest.mark.parametrize("n,c", [(n, c) for n in range(3, 9) for c in range(1, n)])
def test_adversary_with_nodes_and_links_recovers_the_routes_it_touches(n, c):
    # Each route id whose route uses an intercepted link, or a link of a
    # compromised node, is recovered, and no other; the final key is known
    # exactly when every id is.
    seg, scheme = segment_scheme(n, c)
    routes = enumerate_routes(seg).routes
    interior, edges = list(seg.interior_nodes), seg.edges()
    rng = random.Random(n * 100 + c)
    for _ in range(25):
        nodes = set(rng.sample(interior, rng.randint(1, len(interior))))
        links = set(rng.sample(edges, rng.randint(1, len(edges))))
        view = adversary_view(seg, scheme, CompromiseScenario.of(seg, nodes=nodes, links=links))
        touched = {
            route_id
            for route_id, route in enumerate(routes, start=1)
            for link in zip(route, route[1:])
            if link in links or nodes.intersection(link)
        }
        assert view.recovered_route_keys == touched
        assert view.knows_final_key == (len(touched) == len(routes))


def test_adversary_single_node_misses_a_key():
    seg, scheme = segment_scheme(6, 2)
    view = adversary_view(seg, scheme, CompromiseScenario.of(seg, nodes={3}))
    assert not view.knows_final_key
    assert view.recovered_route_keys < set(range(1, 9))


def test_adversary_endpoint_links_reveal_all():
    seg, scheme = segment_scheme(6, 2)
    view = adversary_view(seg, scheme, CompromiseScenario.of(seg, links={(1, 2), (1, 3)}))
    assert view.knows_final_key
    assert view.recovered_route_keys == set(range(1, 9))


def test_adversary_empty_scenario():
    seg, scheme = segment_scheme(6, 2)
    view = adversary_view(seg, scheme, CompromiseScenario.of(seg))
    assert view.recovered_route_keys == frozenset()
    assert not view.knows_final_key


@pytest.mark.parametrize("n,c", [(n, c) for n in range(4, 10) for c in range(2, min(n - 1, 4))])
def test_single_node_secrecy_when_c_at_least_2(n, c):
    seg, scheme = segment_scheme(n, c)
    for node in seg.interior_nodes:
        view = adversary_view(seg, scheme, CompromiseScenario.of(seg, nodes={node}))
        assert not view.knows_final_key


@pytest.mark.parametrize("n", range(3, 8))
def test_single_node_breaks_serial_chain(n):
    # for c = 1 one compromised interior node reveals the single route key
    seg, scheme = segment_scheme(n, 1)
    for node in seg.interior_nodes:
        view = adversary_view(seg, scheme, CompromiseScenario.of(seg, nodes={node}))
        assert view.knows_final_key


@pytest.mark.parametrize("n,c", [(n, c) for n in range(3, 10) for c in range(1, n)])
def test_adversary_consistent_with_attack_predicates(n, c):
    # No session runs: the view comes from the scheme and the scenario.
    seg, scheme = segment_scheme(n, c)
    interior = list(seg.interior_nodes)
    for r in range(len(interior) + 1):
        for nodes in itertools.combinations(interior, r):
            view = adversary_view(seg, scheme, CompromiseScenario.of(seg, nodes=nodes))
            # holding a node gives its incident links' bundles, which is the
            # link set incident to the nodes
            incident = [
                link for link in seg.edges()
                if link.src in nodes or link.dst in nodes
            ]
            assert view.knows_final_key == link_attack_succeeds(seg, incident)
            # the nodes reveal the final key exactly when they hold a run of c
            assert view.knows_final_key == node_attack_succeeds(seg, nodes)
    edges = seg.edges()
    if len(edges) > 12:  # all 2^len(edges) link subsets only up to 12 links
        return
    for r in range(len(edges) + 1):
        for links in itertools.combinations(edges, r):
            view = adversary_view(seg, scheme, CompromiseScenario.of(seg, links=links))
            assert view.knows_final_key == link_attack_succeeds(seg, links)


def test_xor_linearity_of_final_key():
    seg, scheme, keys, transcript, final_key = session(6, 2, key_len=16)
    # flipping one bit of any single route key flips that bit of the XOR
    for i in range(len(keys.route_keys)):
        flipped = list(keys.route_keys)
        flipped[i] ^= 1 << 3
        acc = 0
        for k in flipped:
            acc ^= k
        assert acc == final_key ^ (1 << 3)


def test_long_link_keys_do_not_alias():
    # 1024-bit keys that differ only in their lowest bit must give
    # different keystreams.
    assert _keystream(1 << 1000, 1024, 512) != _keystream((1 << 1000) + 1, 1024, 512)
    # equal key bytes under different key lengths must too
    assert _keystream(1, 9, 64) != _keystream(1, 16, 64)


def reference_concat_keys(keys, key_len):
    """The running shift-or accumulator: simple, quadratic in len(keys)."""
    value = 0
    for key in keys:
        value = (value << key_len) | key
    return value


def reference_split_keys(value, count, key_len):
    mask = (1 << key_len) - 1
    return [(value >> (key_len * (count - 1 - i))) & mask for i in range(count)]


def xor_all(keys):
    return functools.reduce(operator.xor, keys, 0)


@pytest.mark.parametrize("key_len", [1, 7, 8, 127, 128, 129])
def test_key_packing_matches_shift_or_reference(key_len):
    rng = random.Random(key_len)
    for count in [*range(0, 34), 63, 64, 65, 1000]:
        keys = [rng.getrandbits(key_len) for _ in range(count)]
        packed = _concat_keys(keys, key_len)
        assert packed == reference_concat_keys(keys, key_len)
        assert reference_split_keys(packed, count, key_len) == keys
        assert _xor_keys(packed, count, key_len) == xor_all(keys)


def gapped_bundles(route_count, rng):
    """Ascending id tuples with gaps, as the bundles of inner links have."""
    yield (1,)
    yield (route_count,)
    yield (1, route_count)
    yield tuple(range(1, route_count + 1, 3))
    for _ in range(20):
        size = rng.randrange(1, route_count + 1)
        yield tuple(sorted(rng.sample(range(1, route_count + 1), size)))


@pytest.mark.parametrize("key_len", [8, 16, 64, 128, 1024])
def test_byte_packing_matches_shift_or_packing(key_len):
    # The byte path of run_session must give the integers of _concat_keys,
    # and _xor_keys, which reconstruct_at_endpoint uses for every key
    # length, must give the XOR of the packed keys.  A gapped id tuple is
    # packed as a bundle of one-id blocks.
    rng = random.Random(key_len)
    scheme = build_routing_scheme(make_segment(12, 4))
    route_keys = [rng.getrandbits(key_len) for _ in range(scheme.route_count)]
    kb = key_len // 8
    key_buffer = b"".join([bytes(kb), *(key.to_bytes(kb, "big") for key in route_keys)])
    at = list(range(0, len(key_buffer) + kb, kb))
    bundles = [
        *scheme.per_link_bundles.values(),
        *(Bundle(array("q", ids), 1) for ids in gapped_bundles(scheme.route_count, rng)),
    ]
    for bundle in bundles:
        keys = [route_keys[i - 1] for i in bundle]
        packed = _join_key_bytes(key_buffer, at, bundle)
        assert packed == _concat_keys(keys, key_len) == reference_concat_keys(keys, key_len)
        assert reference_split_keys(packed, len(bundle), key_len) == keys
        assert _xor_keys(packed, len(bundle), key_len) == xor_all(keys)


@pytest.mark.parametrize("key_len", [1, 7, 128, 256, 512, 1024, MAX_KEY_LEN])
def test_keystream_matches_shake256_replay(key_len):
    # The keystream is the first nbits of SHAKE-256 over the key length as
    # 4 big-endian bytes, then the key as (key_len + 7) // 8 big-endian bytes.
    rng = random.Random(key_len)
    link_key = rng.getrandbits(key_len) | 1 << (key_len - 1)
    message = key_len.to_bytes(4, "big") + link_key.to_bytes((key_len + 7) // 8, "big")
    for nbits in (1, 8, 3 * 512 + 43, key_len * 5):
        out = hashlib.shake_256(message).digest(-(-nbits // 8))
        expected = int.from_bytes(out, "big") >> (-nbits % 8)
        assert _keystream(link_key, key_len, nbits) == expected


@pytest.mark.parametrize("key_len", [1, 8])
def test_reconstruct_rejects_wrong_bit_length(key_len):
    seg, scheme, keys, transcript, final_key = session(6, 2, key_len=key_len)
    messages = list(transcript.messages)
    link, ciphertext = messages[-1]
    messages[-1] = (link, ciphertext | 1 << (len(scheme.per_link_bundles[link]) * key_len))
    corrupted = SessionTranscript(messages=tuple(messages), key_len=key_len)
    with pytest.raises(ValidationError, match="wrong bit length"):
        reconstruct_at_endpoint(seg, scheme, corrupted, endpoint_keys(seg, keys))


@pytest.mark.parametrize(
    "key_len,bad_key",
    [(128, 1 << 200), (128, -1), (128, 1.5), (9, 1 << 12)],
    ids=["too-wide", "negative", "float", "13-bits-at-9"],
)
def test_reconstruct_rejects_link_key_outside_key_len_bits(key_len, bad_key):
    # Too wide for the key's bytes, negative, not an int, and wider than
    # key_len bits yet within its (key_len + 7) // 8 bytes.
    seg, scheme, keys, transcript, final_key = session(6, 2, key_len=key_len)
    link_keys = endpoint_keys(seg, keys)
    link_keys[Link(5, 6)] = bad_key
    with pytest.raises(ValidationError, match=f"link key for .* must be an int in \\[0, 2\\^{key_len}\\)"):
        reconstruct_at_endpoint(seg, scheme, transcript, link_keys)


@pytest.mark.parametrize("kind", [float, str])
def test_reconstruct_rejects_a_ciphertext_that_is_not_an_int(kind):
    seg, scheme, keys, transcript, final_key = session(5, 2, key_len=16, seed=1)
    messages = tuple((link, kind(c) if link.dst == seg.n_nodes else c)
                     for link, c in transcript.messages)
    with pytest.raises(ValidationError, match="is not an int or has wrong bit length"):
        reconstruct_at_endpoint(
            seg, scheme, transcript._replace(messages=messages), endpoint_keys(seg, keys)
        )


@pytest.mark.parametrize("key_len", [8.0, "8", None])
def test_reconstruct_rejects_a_key_len_that_is_not_an_int(key_len):
    seg, scheme, keys, transcript, final_key = session(5, 2, key_len=8, seed=1)
    with pytest.raises(ValidationError, match="key_len must be in"):
        reconstruct_at_endpoint(
            seg, scheme, transcript._replace(key_len=key_len), endpoint_keys(seg, keys)
        )


@pytest.mark.parametrize("key_len", [1, 8])
def test_reconstruct_rejects_uncovered_route_ids(key_len):
    seg, scheme, keys, transcript, final_key = session(6, 2, key_len=key_len)
    messages = tuple(m for m in transcript.messages if m[0] != Link(5, 6))
    partial = SessionTranscript(messages=messages, key_len=key_len)
    with pytest.raises(ValidationError, match="does not cover every route key"):
        reconstruct_at_endpoint(seg, scheme, partial, endpoint_keys(seg, keys))


def test_reconstruct_rejects_scheme_of_other_segment():
    seg, scheme, keys, transcript, final_key = session(6, 2)
    other = build_routing_scheme(make_segment(7, 2))
    with pytest.raises(ValidationError, match="built for a different segment"):
        reconstruct_at_endpoint(seg, other, transcript, endpoint_keys(seg, keys))


@pytest.mark.parametrize("key_len", [5, 8])
def test_reconstruct_takes_the_last_message_of_a_link(key_len):
    # An endpoint message sent twice: a corrupted copy, then the right one.
    seg, scheme, keys, transcript, final_key = session(7, 3, key_len=key_len)
    link, ciphertext = transcript.messages[-1]
    assert link.dst == seg.n_nodes
    messages = (*transcript.messages[:-1], (link, ciphertext ^ 1), (link, ciphertext))
    resent = SessionTranscript(messages=messages, key_len=key_len)
    assert reconstruct_at_endpoint(seg, scheme, resent, endpoint_keys(seg, keys)) == final_key
    swapped = SessionTranscript(messages=messages[:-2] + messages[:-3:-1], key_len=key_len)
    assert reconstruct_at_endpoint(seg, scheme, swapped, endpoint_keys(seg, keys)) != final_key


def test_negative_seed_rejected():
    seg = make_segment(6, 2)
    with pytest.raises(ValidationError, match="seed must be >= 0, got -3"):
        run_session(seg, build_routing_scheme(seg), 128, -3)


def test_session_material_cap(monkeypatch):
    # The cap is lowered so that a session past it stays small even if the
    # check were missing.
    seg = make_segment(6, 2)
    scheme = build_routing_scheme(seg)
    ids = sum(map(len, scheme.per_link_bundles.values()))
    monkeypatch.setattr("qkdnet.protocol.MAX_SESSION_BITS", ids * 8)
    run_session(seg, scheme, 8, 0)
    with pytest.raises(CapExceededError, match=f"session key material {ids * 9} bits"):
        run_session(seg, scheme, 9, 0)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_session_memory_at_the_largest_benchmark_segment():
    # Building the scheme and running the session at (20, 2), 1.5 MB of
    # messages, peaked at 6.4 MB when every bundle id was an int, and at
    # 3.1 MB with bundles stored as blocks.
    def run():
        seg = make_segment(20, 2)
        run_session(seg, build_routing_scheme(seg), 128, 0)

    assert traced_peak(run) < 4 * 2**20


@pytest.mark.parametrize("n,c,key_len", [(6, 2, 128), (9, 3, 13), (3, 1, 8)])
def test_session_sends_each_message_as_the_transcript_holds_it(n, c, key_len):
    seg, scheme, keys, transcript, final_key = session(n, c, key_len=key_len)
    sent = []
    streamed = run_session(seg, scheme, key_len, 11, sent.append)
    assert tuple(sent) == transcript.messages
    assert streamed == (keys, transcript._replace(messages=()), final_key)


def test_session_memory_when_each_message_is_sent_on():
    # At (20, 2) the 1.5 MB of ciphertexts are most of what a session holds
    # besides the scheme: 2.9 MB kept in the transcript, 1.5 MB sent on.
    def run():
        seg = make_segment(20, 2)
        run_session(seg, build_routing_scheme(seg), 128, 0, lambda message: None)

    assert traced_peak(run) < 2 * 2**20


def test_material_check_keeps_only_the_last_counts():
    # The total bundle size at N = 1e4 has about 7,000 bits; keeping every
    # intermediate count took 7.4 MB here.
    def check():
        with pytest.raises(CapExceededError, match="session key material"):
            check_session(make_segment(10**4, 2), 128, 0)

    assert traced_peak(check) < 2**18
