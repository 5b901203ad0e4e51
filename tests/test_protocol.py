import hashlib
import itertools
import random

import pytest

from qkdnet import (
    CompromiseScenario,
    Link,
    ValidationError,
    adversary_view,
    build_routing_scheme,
    link_attack_succeeds,
    make_segment,
    node_attack_succeeds,
    run_session,
    reconstruct_at_endpoint,
)
from qkdnet.protocol import SessionTranscript, _concat_keys, _keystream, _split_keys


def session(n, c, key_len=32, seed=11):
    seg = make_segment(n, c)
    scheme = build_routing_scheme(seg)
    keys, transcript, final_key = run_session(seg, scheme, key_len, seed)
    return seg, scheme, keys, transcript, final_key


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


@pytest.mark.parametrize("key_len", [1, 8, 128])
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


def test_adversary_single_node_misses_a_key():
    seg, scheme, keys, transcript, final_key = session(6, 2)
    view = adversary_view(
        seg, scheme, transcript, CompromiseScenario.of(seg, nodes={3})
    )
    assert not view.knows_final_key
    assert view.recovered_route_keys < set(range(1, 9))


def test_adversary_endpoint_links_reveal_all():
    seg, scheme, keys, transcript, final_key = session(6, 2)
    view = adversary_view(
        seg, scheme, transcript,
        CompromiseScenario.of(seg, links={(1, 2), (1, 3)}),
    )
    assert view.knows_final_key
    assert view.recovered_route_keys == set(range(1, 9))


def test_adversary_empty_scenario():
    seg, scheme, keys, transcript, final_key = session(6, 2)
    view = adversary_view(seg, scheme, transcript, CompromiseScenario.of(seg))
    assert view.recovered_route_keys == frozenset()
    assert not view.knows_final_key


@pytest.mark.parametrize("n,c", [(n, c) for n in range(4, 10) for c in range(2, min(n - 1, 4))])
def test_single_node_secrecy_when_c_at_least_2(n, c):
    seg, scheme, keys, transcript, final_key = session(n, c, key_len=8)
    for node in seg.interior_nodes:
        view = adversary_view(
            seg, scheme, transcript, CompromiseScenario.of(seg, nodes={node})
        )
        assert not view.knows_final_key


@pytest.mark.parametrize("n", range(3, 8))
def test_single_node_breaks_serial_chain(n):
    # for c = 1 one compromised interior node reveals the single route key
    seg, scheme, keys, transcript, final_key = session(n, 1, key_len=8)
    for node in seg.interior_nodes:
        view = adversary_view(
            seg, scheme, transcript, CompromiseScenario.of(seg, nodes={node})
        )
        assert view.knows_final_key


@pytest.mark.parametrize("n,c", [(5, 2), (6, 2), (6, 3)])
def test_adversary_consistent_with_attack_predicates(n, c):
    seg, scheme, keys, transcript, final_key = session(n, c, key_len=4)
    interior = list(seg.interior_nodes)
    for r in range(len(interior) + 1):
        for nodes in itertools.combinations(interior, r):
            view = adversary_view(
                seg, scheme, transcript, CompromiseScenario.of(seg, nodes=nodes)
            )
            # holding a node gives its incident links' bundles, which is the
            # link set incident to the nodes
            incident = [
                link for link in seg.edges()
                if link.src in nodes or link.dst in nodes
            ]
            assert view.knows_final_key == link_attack_succeeds(seg, incident)
            # compromising a run of c implies full knowledge
            if node_attack_succeeds(seg, nodes):
                assert view.knows_final_key
    edges = seg.edges()
    for r in range(len(edges) + 1):
        for links in itertools.combinations(edges, r):
            view = adversary_view(
                seg, scheme, transcript, CompromiseScenario.of(seg, links=links)
            )
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
    # BLAKE2b takes at most 64-byte keys; 1024-bit keys that differ only in
    # their lowest bit must still give different keystreams.
    assert _keystream(1 << 1000, 1024, 512) != _keystream((1 << 1000) + 1, 1024, 512)
    # keys of up to 64 bytes are used as the BLAKE2b key unchanged
    key = (1 << 511) + 12345
    block = hashlib.blake2b((0).to_bytes(8, "big"), key=key.to_bytes(64, "big")).digest()
    assert _keystream(key, 512, 512) == int.from_bytes(block, "big")


def reference_concat_keys(keys, key_len):
    """The running shift-or accumulator: simple, quadratic in len(keys)."""
    value = 0
    for key in keys:
        value = (value << key_len) | key
    return value


def reference_split_keys(value, count, key_len):
    mask = (1 << key_len) - 1
    return [(value >> (key_len * (count - 1 - i))) & mask for i in range(count)]


@pytest.mark.parametrize("key_len", [1, 7, 8, 127, 128, 129])
def test_key_packing_matches_shift_or_reference(key_len):
    rng = random.Random(key_len)
    for count in [*range(0, 34), 63, 64, 65, 1000]:
        keys = [rng.getrandbits(key_len) for _ in range(count)]
        packed = _concat_keys(keys, key_len)
        assert packed == reference_concat_keys(keys, key_len)
        assert _split_keys(packed, count, key_len) == keys
        # bits above count * key_len are ignored, as by the reference
        noisy = packed | (rng.getrandbits(40) << (count * key_len))
        assert _split_keys(noisy, count, key_len) == reference_split_keys(
            noisy, count, key_len
        )
