"""Executable XOR key-transport session.

Each route carries one route key K_i; the final key is the XOR of all of
them.  Every link sends one message: the concatenation of its bundle's
route keys (ascending index, first key in the most significant bits),
encrypted by XOR with a keystream expanded from the link's QKD key.

Keys and ciphertexts are modeled as Python integers of known bit length.
The keystream expansion is a keyed-hash counter-mode stub, not a security
claim: the model assumes sufficient key material per link.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .errors import ValidationError
from .routes import RoutingScheme
from .topology import CompromiseScenario, Link, NetworkSegment

# Longest key, in bits (8 KiB); every route key and link key has key_len bits.
MAX_KEY_LEN = 1 << 16


@dataclass(frozen=True)
class SessionKeys:
    link_keys: dict[Link, int]
    route_keys: tuple[int, ...]
    key_len: int


@dataclass(frozen=True)
class SessionTranscript:
    """Per-link ciphertexts in routing-scheme link order."""

    messages: tuple[tuple[Link, int], ...]
    key_len: int


@dataclass(frozen=True)
class AdversaryView:
    known_nodes: frozenset[int]
    known_links: frozenset[Link]
    recovered_route_keys: frozenset[int]
    knows_final_key: bool


def _keystream(link_key: int, key_len: int, nbits: int) -> int:
    """Counter-mode expansion of a link key into nbits of keystream.

    BLAKE2b takes keys of at most 64 bytes.  As in HMAC (RFC 2104), a
    longer key is first hashed to 64 bytes, so every bit of it reaches the
    keystream; shorter keys are used unchanged.
    """
    key_bytes = link_key.to_bytes(max((key_len + 7) // 8, 1), "big")
    if len(key_bytes) > 64:
        key_bytes = hashlib.blake2b(key_bytes).digest()
    chunks = []
    counter = 0
    while len(chunks) * 64 * 8 < nbits:
        chunks.append(
            hashlib.blake2b(counter.to_bytes(8, "big"), key=key_bytes).digest()
        )
        counter += 1
    stream = int.from_bytes(b"".join(chunks), "big")
    return stream >> (len(chunks) * 64 * 8 - nbits)


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


def _split_keys(value: int, count: int, key_len: int) -> list[int]:
    """The low ``count`` keys of ``value``, most significant first.

    The inverse of ``_concat_keys``, by halving: each round splits every
    part into its high and low halves, and the padding parts in front
    are dropped at the end.
    """
    rounds = max(count - 1, 0).bit_length()
    parts = [value & ((1 << (count * key_len)) - 1)]
    width = key_len << rounds
    for _ in range(rounds):
        width >>= 1
        mask = (1 << width) - 1
        parts = [half for part in parts for half in (part >> width, part & mask)]
    return parts[len(parts) - count :]


def run_session(
    seg: NetworkSegment, scheme: RoutingScheme, key_len: int, seed: int
) -> tuple[SessionKeys, SessionTranscript, int]:
    """Execute one key-transport session; returns keys, transcript, and the
    final key (XOR of all route keys)."""
    if scheme.segment != seg:
        raise ValidationError("routing scheme was built for a different segment")
    if not 1 <= key_len <= MAX_KEY_LEN:
        raise ValidationError(f"key_len must be in [1, {MAX_KEY_LEN}], got {key_len}")
    rng = random.Random(seed)
    link_keys = {link: rng.getrandbits(key_len) for link in seg.edges()}
    route_keys = tuple(rng.getrandbits(key_len) for _ in range(scheme.route_count))

    messages = []
    for link in seg.edges():
        bundle = scheme.per_link_bundles[link]
        plaintext = _concat_keys([route_keys[i - 1] for i in bundle], key_len)
        nbits = len(bundle) * key_len
        ciphertext = plaintext ^ _keystream(link_keys[link], key_len, nbits)
        messages.append((link, ciphertext))

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
    endpoint's own link keys suffice.
    """
    key_len = transcript.key_len
    recovered: dict[int, int] = {}
    for link, ciphertext in transcript.messages:
        if link.dst != seg.n_nodes:
            continue
        if link not in link_keys_of_last_node:
            raise ValidationError(f"missing link key for {link}")
        bundle = scheme.per_link_bundles[link]
        nbits = len(bundle) * key_len
        if ciphertext < 0 or ciphertext >> nbits:
            raise ValidationError(f"ciphertext on {link} has wrong bit length")
        plaintext = ciphertext ^ _keystream(link_keys_of_last_node[link], key_len, nbits)
        for idx, key in zip(bundle, _split_keys(plaintext, len(bundle), key_len)):
            recovered[idx] = key
    if set(recovered) != set(range(1, scheme.route_count + 1)):
        raise ValidationError("transcript does not cover every route key")
    final_key = 0
    for key in recovered.values():
        final_key ^= key
    return final_key


def adversary_view(
    seg: NetworkSegment,
    scheme: RoutingScheme,
    transcript: SessionTranscript,
    scenario: CompromiseScenario,
) -> AdversaryView:
    """What an adversary holding the scenario's nodes and links learns.

    A compromised node yields the keys of all its incident links (it
    decrypts everything that passes through it); an intercepted link
    yields that link's bundle.
    """
    known_links = set(scenario.intercepted_links)
    for link in seg.edges():
        if link.src in scenario.compromised_nodes or link.dst in scenario.compromised_nodes:
            known_links.add(link)
    recovered: set[int] = set()
    for link in known_links:
        recovered.update(scheme.per_link_bundles[link])
    return AdversaryView(
        known_nodes=frozenset(scenario.compromised_nodes),
        known_links=frozenset(known_links),
        recovered_route_keys=frozenset(recovered),
        knows_final_key=len(recovered) == scheme.route_count,
    )
