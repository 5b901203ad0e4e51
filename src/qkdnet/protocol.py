"""Executable XOR key-transport session.

Each route carries one route key K_i; the final key is the XOR of all of
them.  Every link sends one message: the concatenation of its bundle's
route keys (ascending index, first key in the most significant bits),
encrypted by XOR with a keystream expanded from the link's QKD key.

Keys and ciphertexts are modeled as Python integers of known bit length.
The keystream expansion is a stub, not a security claim: the model
assumes sufficient key material per link.  Each link's stream is one
SHAKE-256 output of the link key behind its bit length, so keys of every
length take one path and no pre-hash.

Messages are packed block by block: a block is a run of consecutive
route ids (see ``routes.Bundle``), so its keys are one slice of the keys
in id order.  When ``key_len % 8 == 0`` (the default 128 bits), the route
keys are laid end to end in one byte buffer and a message is one
``b"".join`` of one buffer slice per block.  Other lengths take the same
slices of the key tuple and join the keys with the shift-or
``_concat_keys``; both paths give the same integers.  The endpoint never
splits a plaintext into keys: it needs only their XOR, which
``_xor_keys`` folds out by halving.

A session's messages carry sum(len(bundle)) * key_len bits, which grows
with the route count; ``check_session`` refuses more than
``MAX_SESSION_BITS`` of them before anything is allocated.  A caller that
passes ``run_session`` a consumer gets each message as it is made, and
need not hold them all.
"""

from __future__ import annotations

import hashlib
import random
from itertools import chain, compress, repeat
from typing import Callable, NamedTuple

from .errors import CapExceededError, ValidationError
from .routes import Bundle, RoutingScheme, bundle_id_total
from .topology import CompromiseScenario, Link, NetworkSegment

# Longest key, in bits (8 KiB); every route key and link key has key_len bits.
MAX_KEY_LEN = 1 << 16
# Most key material one session's messages may carry, in bits (128 MiB):
# the total bundle size times key_len.  The largest benchmark session,
# N = 20, c = 2 at 128 bits, carries 12.0 Mbit.  The cap bounds message
# bits, not memory.  A session whose messages go to a consumer holds one
# message at a time, plus about 220 bytes per route at 128-bit keys (the
# route keys, their bytes and offsets, and the scheme): building the scheme
# and running it peaked (tracemalloc) at 1.5 MB at (20, 2), 3.8 MB at
# (22, 2) and 10.0 MB at (24, 2).  Kept in the transcript, the messages add
# about as much again (2.9, 8.0 and 22.1 MB).  Of the sessions that both
# this cap and the route cap accept at 128 bits, the one with the most
# routes, (22, 4) with 547,337, peaked at 171 MB of RSS as
# ``demo-protocol`` runs it.
MAX_SESSION_BITS = 1 << 30


class SessionKeys(NamedTuple):
    link_keys: dict[Link, int]
    route_keys: tuple[int, ...]
    key_len: int


class SessionTranscript(NamedTuple):
    """Per-link ciphertexts in routing-scheme link order."""

    messages: tuple[tuple[Link, int], ...]
    key_len: int


class AdversaryView(NamedTuple):
    known_nodes: frozenset[int]
    known_links: frozenset[Link]
    recovered_route_keys: frozenset[int]
    knows_final_key: bool


def _keystream(link_key: int, key_len: int, nbits: int) -> int:
    """The first nbits of the link key's keystream.

    One SHAKE-256 (FIPS 202) output of the key length as 4 big-endian
    bytes followed by the key's (key_len + 7) // 8 big-endian bytes.  As
    in KMAC (NIST SP 800-185), the length in front makes the stream
    injective in (key_len, link_key), and SHAKE takes a key of any length
    whole, so nothing is pre-hashed.
    """
    nbytes = -(-nbits // 8)
    key = key_len.to_bytes(4, "big") + link_key.to_bytes((key_len + 7) // 8, "big")
    stream = int.from_bytes(hashlib.shake_256(key).digest(nbytes), "big")
    return stream >> (nbytes * 8 - nbits)


def _concat_keys(keys: list[int], key_len: int) -> int:
    """One integer holding the keys, the first in the most significant bits.

    Zero keys pad the front to a power of two (they add only leading
    zeros), then neighbours are joined pairwise, doubling the width each
    round.  Every shift-or is no longer than its result, so the cost is
    O(total bits * log(len(keys))), not quadratic as with one running
    accumulator.
    """
    rounds = max(len(keys) - 1, 0).bit_length()
    parts = [0] * ((1 << rounds) - len(keys)) + list(keys)
    width = key_len
    for _ in range(rounds):
        parts = [(hi << width) | lo for hi, lo in zip(parts[::2], parts[1::2])]
        width <<= 1
    return parts[0]


def _xor_keys(value: int, count: int, key_len: int) -> int:
    """The XOR of the ``count`` keys that ``value`` packs as ``_concat_keys``
    does; ``value`` has no bits above them.

    By halving: XORing the high keys onto the low ones keeps the XOR of
    all of them, so each round is two big-integer operations, not one
    per key.
    """
    while count > 1:
        width = count // 2 * key_len
        value = (value >> width) ^ (value & ((1 << width) - 1))
        count -= count // 2
    return value


def _join_key_bytes(key_buffer: bytes, at: list[int], bundle: Bundle) -> int:
    """The bundle's keys packed as by ``_concat_keys``, from byte-aligned
    keys laid end to end in id order: route key i is
    ``key_buffer[at[i]:at[i + 1]]``.  Each block of the bundle is one
    slice of the buffer."""
    return int.from_bytes(b"".join(bundle.slices(key_buffer, at)), "big")


def check_session(seg: NetworkSegment, key_len: int, seed: int) -> None:
    """Refuse a session before anything is allocated.

    ``key_len`` outside [1, MAX_KEY_LEN] and a negative ``seed`` are
    ValidationErrors (``random.Random`` seeds with abs(seed), so -s would
    give the keys of s).  Messages carrying more than MAX_SESSION_BITS
    bits in all, the exact total bundle size times ``key_len``, are a
    CapExceededError.
    """
    if not 1 <= key_len <= MAX_KEY_LEN:
        raise ValidationError(f"key_len must be in [1, {MAX_KEY_LEN}], got {key_len}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    bits = bundle_id_total(seg) * key_len
    if bits > MAX_SESSION_BITS:
        raise CapExceededError(
            f"session key material {bits} bits exceeds cap {MAX_SESSION_BITS}"
        )


def _check_scheme(seg: NetworkSegment, scheme: RoutingScheme) -> None:
    """Refuse a scheme that ``build_routing_scheme`` did not make for ``seg``."""
    if scheme.segment != seg:
        raise ValidationError("routing scheme was built for a different segment")
    if len(scheme.per_link_bundles) != seg.edge_count or not all(
        isinstance(link, Link) and seg.has_link(*link) and isinstance(bundle, Bundle)
        for link, bundle in scheme.per_link_bundles.items()
    ):
        raise ValidationError("routing scheme must map each link of the segment to a Bundle")


def run_session(
    seg: NetworkSegment,
    scheme: RoutingScheme,
    key_len: int,
    seed: int,
    send: Callable[[tuple[Link, int]], object] | None = None,
) -> tuple[SessionKeys, SessionTranscript, int]:
    """Execute one key-transport session; returns keys, transcript, and the
    final key (XOR of all route keys).

    Refuses what ``_check_scheme`` and ``check_session`` refuse.  Links
    draw their keys and send their messages in scheme order.  Each message
    ``(link, ciphertext)`` goes to ``send`` as soon as it is made, and the
    transcript then holds no messages, so a caller that keeps only some of
    them holds only those; with no ``send`` every message is kept in the
    transcript.  Calls with the same seed draw the same keys.  When
    ``key_len % 8 == 0`` each route key is converted to bytes once and
    every bundle is packed by joining one slice of them per block;
    otherwise by ``_concat_keys``.  Both give the same plaintext integers.
    """
    _check_scheme(seg, scheme)
    check_session(seg, key_len, seed)
    rng = random.Random(seed)
    bundles = scheme.per_link_bundles
    link_keys = dict(zip(bundles, map(rng.getrandbits, repeat(key_len, len(bundles)))))
    route_keys = tuple(map(rng.getrandbits, repeat(key_len, scheme.route_count)))

    # Route id i's key sits at [at[i], at[i + 1]) of a sequence of every
    # key in id order, with room for an unused id 0 in front.
    if key_len % 8:
        keys_by_id = (0, *route_keys)
        at = range(len(keys_by_id) + 1)
        def pack(bundle):
            keys = list(chain.from_iterable(bundle.slices(keys_by_id, at)))
            return _concat_keys(keys, key_len)
    else:
        kb = key_len // 8
        key_bytes = map(int.to_bytes, route_keys, repeat(kb), repeat("big"))
        key_buffer = b"".join([bytes(kb), *key_bytes])
        at = list(range(0, len(key_buffer) + kb, kb))
        def pack(bundle):
            return _join_key_bytes(key_buffer, at, bundle)

    messages: list[tuple[Link, int]] = []
    if send is None:
        send = messages.append
    for link, bundle in bundles.items():
        send((link, pack(bundle) ^ _keystream(link_keys[link], key_len, len(bundle) * key_len)))

    final_key = 0
    for key in route_keys:
        final_key ^= key
    keys = SessionKeys(link_keys=link_keys, route_keys=route_keys, key_len=key_len)
    transcript = SessionTranscript(messages=tuple(messages), key_len=key_len)
    return keys, transcript, final_key


def reconstruct_at_endpoint(
    seg: NetworkSegment,
    scheme: RoutingScheme,
    transcript: SessionTranscript,
    link_keys_of_last_node: dict[Link, int],
) -> int:
    """Recover the final key at node N from the messages addressed to it.

    The in-link bundles of node N partition the route indices, so the
    endpoint's own link keys suffice, and the route ids are covered when
    every in-link of N has sent a message; messages on other links are
    not read.  Besides what ``_check_scheme`` refuses, a ``key_len`` that
    is not an int in [1, MAX_KEY_LEN], an in-link with no message or link
    key, a link key that is not an int in [0, 2^key_len), or a ciphertext
    that is not an int of at most its bundle's bit length is a
    ValidationError.  A link's last message counts.  Each plaintext is
    reduced to the XOR of its keys by ``_xor_keys``, whatever the key
    length.
    """
    _check_scheme(seg, scheme)
    key_len = transcript.key_len
    if not isinstance(key_len, int) or not 1 <= key_len <= MAX_KEY_LEN:
        raise ValidationError(f"key_len must be in [1, {MAX_KEY_LEN}], got {key_len}")
    ciphertexts = dict(transcript.messages)  # a link's last message counts
    final_key = 0
    for link, bundle in scheme.per_link_bundles.items():
        if link.dst != seg.n_nodes:
            continue
        if link not in ciphertexts:
            raise ValidationError("transcript does not cover every route key")
        if link not in link_keys_of_last_node:
            raise ValidationError(f"missing link key for {link}")
        link_key = link_keys_of_last_node[link]
        if not isinstance(link_key, int) or link_key < 0 or link_key >> key_len:
            raise ValidationError(f"link key for {link} must be an int in [0, 2^{key_len})")
        ciphertext, nbits = ciphertexts[link], len(bundle) * key_len
        if not isinstance(ciphertext, int) or ciphertext < 0 or ciphertext >> nbits:
            raise ValidationError(f"ciphertext on {link} is not an int or has wrong bit length")
        plaintext = ciphertext ^ _keystream(link_key, key_len, nbits)
        final_key ^= _xor_keys(plaintext, len(bundle), key_len)
    return final_key


def adversary_view(
    seg: NetworkSegment, scheme: RoutingScheme, scenario: CompromiseScenario
) -> AdversaryView:
    """What the scheme reveals to an adversary holding the scenario's nodes and links.

    A compromised node yields the keys of all its incident links (it
    decrypts everything that passes through it); an intercepted link
    yields that link's bundle.  Refuses what ``_check_scheme`` and
    ``CompromiseScenario.of`` refuse.  An interior node's in-link bundles
    hold every route through it, so its out-links add no route id.
    """
    _check_scheme(seg, scheme)
    nodes, links = CompromiseScenario.of(seg, *scenario)
    known_links = []
    marks = bytearray(scheme.route_count + 1)  # marks[i]: route id i is recovered
    for link, bundle in scheme.per_link_bundles.items():
        marked = link.dst in nodes or link in links
        if marked or link.src in nodes:
            known_links.append(link)
        if marked:
            width, block = bundle.width, b"\x01" * bundle.width
            for start in bundle.starts:
                marks[start : start + width] = block
    recovered = frozenset(compress(range(len(marks)), marks))
    return AdversaryView(
        known_nodes=frozenset(nodes),
        known_links=frozenset(known_links),
        recovered_route_keys=recovered,
        knows_final_key=len(recovered) == scheme.route_count,
    )
