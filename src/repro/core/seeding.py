"""Deterministic seed derivation for campaign instances.

A campaign runs many instances from one campaign seed; each instance needs a
seed that is (a) deterministic given ``(campaign_seed, instance_index)`` and
(b) collision-free across neighbouring campaigns.  The seed's previous
additive scheme (``seed + 1000 * (index + 1)``) violated (b): campaign seed
1000 / instance 0 collided with campaign seed 0 / instance 1, so two
campaigns launched from adjacent seeds silently re-ran each other's
instances.  SplitMix64-style mixing spreads both inputs over the full 64-bit
space, so nearby (seed, index) pairs land on unrelated streams.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1

#: The SplitMix64 increment (the "golden gamma", floor(2^64 / phi)).
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One SplitMix64 output step: finalise ``state`` into a mixed 64-bit value."""
    z = (state + _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_instance_seed(campaign_seed: int, instance_index: int) -> int:
    """Seed for the ``instance_index``-th instance of a campaign.

    Two SplitMix64 steps — one absorbing the campaign seed, one absorbing the
    instance index — so that the map is injective-in-practice over both
    arguments and ``derive_instance_seed(s, i) == derive_instance_seed(s', i')``
    only if ``(s, i) == (s', i')`` (up to 64-bit collisions).
    """
    if instance_index < 0:
        raise ValueError("instance_index must be non-negative")
    return mix_seed(campaign_seed, instance_index)


def mix_seed(state: int, value: int) -> int:
    """Absorb ``value`` into ``state`` with two SplitMix64 steps.

    Unlike ``state ^ value``, which maps every pair with the same XOR to one
    seed, distinct ``(state, value)`` pairs (both taken modulo 2**64) land
    on unrelated 64-bit seeds.
    """
    mixed = splitmix64(state & _MASK64)
    return splitmix64(mixed ^ ((value & _MASK64) * _GOLDEN_GAMMA & _MASK64))
