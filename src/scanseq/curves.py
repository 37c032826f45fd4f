"""Space-filling-curve serialization of 3D and merged 4D voxel sets.

Two codec families: Z-order (Morton bit interleaving, by a 16-bit spread
table) and Hilbert (a state-table walk over the interleaved coordinates,
one lookup per two levels). The Hilbert table is derived on first use per
dimensionality from Skilling's transpose transform ("Programming the Hilbert
curve", 2004) on a two-level grid, so ranks are Skilling's. Both are exact
bijections between d-dimensional grid coordinates and ranks in
[0, 2^(d*bits)). "Trans" variants rotate the axes before encoding
(x->y->z->x in 3D, x->y->z->t->x in 4D) to diversify the traversal patterns.

Bit-significance conventions, declared here once:
  * Z-order interleaves with x in the least significant slot of each bit
    group, then y, z, and (in 4D) t in the most significant slot.
  * Hilbert uses the transpose convention in which the first axis carries the
    most significant interleave slot.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .geometry import VoxelGrid4D, _integer_rows, _word_order
from .model import _number, _seed

DEFAULT_BITS_PER_AXIS = 16


class Curve(str, enum.Enum):
    Z_ORDER = "z_order"
    HILBERT = "hilbert"
    Z_ORDER_TRANS = "z_order_trans"
    HILBERT_TRANS = "hilbert_trans"


class SerializationDims(str, enum.Enum):
    SPATIAL_3D = "spatial_3d"
    SPATIOTEMPORAL_4D = "spatiotemporal_4d"


class ScheduleMix(str, enum.Enum):
    SPATIAL_ONLY = "spatial_only"
    TEMPORAL_ONLY = "temporal_only"
    MIXED = "mixed"


_TRANS_PERMS = {3: (2, 0, 1), 4: (3, 0, 1, 2)}  # axis rotation x->y->z(->t)->x


def _check_bits(d: int, bits) -> int:
    """``bits_per_axis`` as an integer: at least 1, and at most 64 bits over ``d`` axes."""
    bits = _number(bits, "bits_per_axis", int)
    if bits < 1:
        raise ValueError("bits_per_axis must be >= 1")
    if d * bits > 64:
        raise ValueError("d * bits_per_axis must not exceed 64")
    return bits


@functools.cache
def _spread_masks(d: int, bits: int) -> tuple[np.uint64, ...]:
    """masks[k]: an axis's bits in blocks of 2^k, 2^k * d apart (masks[-1] packed)."""
    return tuple(np.uint64(sum(1 << (b // s * s * d + b % s) for b in range(bits)))
                 for s in (1 << k for k in range((bits - 1).bit_length() + 1)))


@functools.cache
def _spread_table(d: int) -> np.ndarray:
    """(65536,) read-only uint64 table: bit b of a 16-bit value moved to bit b*d."""
    table = np.zeros(1 << 16, dtype=np.uint64)
    for b in range(16):  # the values with top bit b are those below 2^b plus bit b
        np.bitwise_or(table[:1 << b], np.uint64(1 << b * d), out=table[1 << b:2 << b])
    return np.frombuffer(table.tobytes(), np.uint64)  # read-only: every caller shares it


def _spread_axes(columns, d: int, bits: int) -> np.ndarray:
    """Interleave bit b of the i-th of d uint64 columns into bit b*d + i by
    table lookup: one ``take`` per 16 bits of each column."""
    table = _spread_table(d)
    out = None
    for i, v in enumerate(columns):
        for low in range(0, bits, 16):
            chunk = v if bits <= 16 else (v >> np.uint64(low)) & np.uint64(0xFFFF)
            part = table.take(chunk.view(np.int64))
            np.left_shift(part, np.uint64(low * d + i), out=part)
            out = part if out is None else np.bitwise_or(out, part, out=out)
    return out


def _compact_axes(x: np.ndarray, d: int, bits: int) -> np.ndarray:
    """Inverse of :func:`_spread_axes`; returns (N, d) uint64 columns."""
    masks = _spread_masks(d, bits)
    parts = np.empty((len(x), d), dtype=np.uint64)
    for i in range(d):
        v = (x >> np.uint64(i)) & masks[0]
        for k in range(1, len(masks)):
            v = (v | (v >> np.uint64((d - 1) << (k - 1)))) & masks[k]
        parts[:, i] = v
    return parts


def _skilling_transpose(X: np.ndarray) -> np.ndarray:
    """Skilling's axes-to-transpose transform, in place, on (N, d) uint64
    coordinates in [0, 4): the cells of a two-level grid."""
    for i in range(X.shape[1]):
        X[:, 0] ^= X[:, i] >> 1  # high bit set: invert the low bit of axis 0
        swap = (X[:, 0] ^ X[:, i]) & ~X[:, i] >> 1 & 1  # else exchange low bits
        X[:, 0] ^= swap
        X[:, i] ^= swap
    for i in range(1, X.shape[1]):
        X[:, i] ^= X[:, i - 1]
    X ^= X[:, -1:] >> 1
    return X


@functools.cache
def _hilbert_tables(d: int, inverse: bool = False) -> tuple[np.ndarray, ...]:
    """Hilbert state tables, derived from Skilling on a two-level grid.

    A state maps a cell digit (one bit per axis, transpose convention) to the
    top-level cell M[c] whose rank digit first[M[c]] and sub-curve it takes;
    its child state is child[M[c]][M]. The tables are (lead digit, lead next,
    pair digit, pair next): one level from state 0, then two composed levels
    from every state, "next" being the next state's row offset in the pair
    table. ``inverse`` maps rank digits back to cell digits, for decoding.
    """
    n = 1 << d
    # flat uint64 views over bytes are read-only: the cache shares them with every caller
    flat = lambda *tables: tuple(np.frombuffer(np.asarray(t, np.uint64).tobytes(), np.uint64)
                                 for t in tables)
    if inverse:
        lead_digit, lead_next, pair_digit, pair_next = _hilbert_tables(d)
        inv, lead_inv = np.argsort(pair_digit.reshape(-1, n * n), axis=1), np.argsort(lead_digit)
        return flat(lead_inv, lead_next[lead_inv], inv,
                    np.take_along_axis(pair_next.reshape(-1, n * n), inv, axis=1))
    axes = _compact_axes(np.arange(n * n, dtype=np.uint64), d, 2)[:, ::-1]  # axis 0 on top
    rank = _spread_axes(_skilling_transpose(axes).T[::-1], d, 2).astype(np.int64)
    first = rank[::n] >> d
    child = np.argsort(first)[(rank & (n - 1)).reshape(n, n)]
    weights = 1 << d * np.arange(n - 2, -1, -1)  # a map's last entry is implied
    pack = lambda maps: maps[..., :-1] @ weights  # preserves lexicographic order
    maps = np.arange(n)[None]  # grow the reachable set until it is closed
    while True:
        kids = child[maps[:, :, None], maps[:, None, :]]
        codes, at = np.unique(np.append(pack(maps), pack(kids)), return_index=True)
        if len(codes) == len(maps):
            break
        maps = np.concatenate([maps, kids.reshape(-1, n)])[at]
    digit, nxt = first[maps], np.searchsorted(codes, pack(kids))
    pair_digit = (digit[:, :, None] << d | digit[nxt]).reshape(len(maps), n * n)
    return flat(digit[0], nxt[0] * n * n, pair_digit, nxt[nxt] * n * n)


def _hilbert_walk(x: np.ndarray, d: int, bits: int, tables) -> np.ndarray:
    """Map the d-bit levels of x, top first, through a state table: a leading
    one-level step when bits is odd, then one lookup per two levels.

    Levels above the highest set bit of any x only advance a scalar state:
    the curve starts at the origin, so on that all-zero path every state maps
    digit 0 to digit 0, in both directions.
    """
    lead_digit, lead_next, pair_digit, pair_next = tables
    used = int(x.max()).bit_length() if x.size else 0  # the levels at or above it are 0
    out, row = np.zeros_like(x), np.uint64(0)
    top = bits * d
    if bits % 2:
        top -= d
        if used > top:
            c = (x >> np.uint64(top)).view(np.int64)
            out, row = lead_digit.take(c) << np.uint64(top), lead_next.take(c)
        else:
            row = lead_next[0]
    for shift in range(top - 2 * d, -1, -2 * d):
        if used <= shift:
            row = pair_next[row]
            continue
        idx = (row + ((x >> np.uint64(shift)) & np.uint64((1 << 2 * d) - 1))).view(np.int64)
        out |= pair_digit.take(idx) << np.uint64(shift)
        row = pair_next.take(idx)
    return out


def _slot_order(curve: Curve, d: int) -> list[int]:
    """Coordinate columns from the least significant interleave slot up."""
    trans = curve in (Curve.Z_ORDER_TRANS, Curve.HILBERT_TRANS)
    perm = list(_TRANS_PERMS[d] if trans else range(d))
    return perm if curve in (Curve.Z_ORDER, Curve.Z_ORDER_TRANS) else perm[::-1]


def _encode(columns, curve: Curve, bits: int) -> np.ndarray:
    """Ranks from a sequence of d uint64 coordinate columns in [0, 2^bits),
    indexed by axis: the code core behind every caller's own checks."""
    d = len(columns)
    x = _spread_axes((columns[c] for c in _slot_order(curve, d)), d, bits)
    if curve in (Curve.HILBERT, Curve.HILBERT_TRANS):
        x = _hilbert_walk(x, d, bits, _hilbert_tables(d))
    return x


def encode_keys(coords, curve: Curve | str,
                bits_per_axis: int = DEFAULT_BITS_PER_AXIS) -> np.ndarray:
    """Vectorized curve ranks for an (N, d) array of integer grid coordinates."""
    arr = _integer_rows(coords, "coords", (3, 4))
    bits = _check_bits(arr.shape[1], bits_per_axis)
    if arr.size and (arr.min() < 0 or arr.max() >= (1 << bits)):
        raise ValueError(f"coordinate out of range [0, 2^{bits})")
    return _encode(arr.astype(np.uint64).T, Curve(curve), bits)


def decode_keys(ranks, curve: Curve | str, ndims: int,
                bits_per_axis: int = DEFAULT_BITS_PER_AXIS) -> np.ndarray:
    """Inverse of :func:`encode_keys`; returns (N, ndims) int64 coordinates."""
    curve = Curve(curve)
    if ndims not in (3, 4):
        raise ValueError("ndims must be 3 or 4")
    bits = _check_bits(ndims, bits_per_axis)
    arr = np.asarray(ranks)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise ValueError(f"ranks must be a 1-D integer array, got {arr.dtype} {arr.shape}")
    if arr.size and (arr.min() < 0 or int(arr.max()) >> (ndims * bits)):
        raise ValueError(f"rank out of range [0, 2^{ndims * bits})")
    x = arr.astype(np.uint64)
    if curve in (Curve.HILBERT, Curve.HILBERT_TRANS):
        x = _hilbert_walk(x, ndims, bits, _hilbert_tables(ndims, inverse=True))
    parts = _compact_axes(x, ndims, bits)
    return parts[:, np.argsort(_slot_order(curve, ndims))].astype(np.int64)


@dataclass(frozen=True)
class SerializationPattern:
    """One traversal pattern: a curve plus the dimensionality it encodes."""

    curve: Curve
    dims: SerializationDims

    def __post_init__(self):
        object.__setattr__(self, "curve", Curve(self.curve))
        object.__setattr__(self, "dims", SerializationDims(self.dims))

    @property
    def ndims(self) -> int:
        return 3 if self.dims == SerializationDims.SPATIAL_3D else 4


def serialize_sequence(grid: VoxelGrid4D, pattern: SerializationPattern,
                       bits_per_axis: int = DEFAULT_BITS_PER_AXIS) -> np.ndarray:
    """Total order over all voxels of a grid under one pattern.

    Returns a permutation of voxel row indices (empty for an empty grid). The
    extent of every axis, t included, must be below 2^bits_per_axis at every
    call; each coordinate column is shifted to start at 0 as it is encoded.
    ``spatial_3d`` orders each stage by its 3D codes and concatenates the
    stages by ascending t; ``spatiotemporal_4d`` merges all stages with t as a
    fourth axis. The order is :func:`geometry._word_order` of each voxel's
    code, with its stage above it for ``spatial_3d``, or, where the two exceed
    64 bits, of the codes alone, followed by a stable stage sort.
    """
    bits = _check_bits(pattern.ndims, bits_per_axis)
    if not grid.num_voxels:
        return np.empty(0, dtype=np.int64)
    lo, span = grid._bounds
    if max(span) >= (1 << bits):
        raise ValueError(f"grid extent exceeds 2^{bits} cells per axis")
    # modular int64 arithmetic, viewed as uint64: exact, since every shifted value is < 2^bits
    shifted = [np.subtract(c, m, dtype=np.int64, casting="unsafe").view(np.uint64)
               for c, m in zip(grid.keys.T, lo)]
    codes, stage = _encode(shifted[:pattern.ndims], pattern.curve, bits), shifted[3]
    # Voxel keys are unique, so codes have no ties within a stage (3D) or
    # within the grid (4D): however the kernel breaks ties, the order is one.
    # Coordinates below 2^L give ranks below 2^(d*L), on either curve (see _hilbert_walk).
    code_bits = pattern.ndims * max(span[:pattern.ndims]).bit_length()
    if pattern.dims == SerializationDims.SPATIOTEMPORAL_4D:
        return _word_order(codes, code_bits)
    if code_bits + span[3].bit_length() <= 64:
        codes |= stage << np.uint64(code_bits)
        return _word_order(codes, code_bits + span[3].bit_length())
    order = _word_order(codes, code_bits)
    # the smallest unsigned stage type lets the stable sort be a radix sort
    stage = stage.astype(np.min_scalar_type(span[3]))
    return order[np.argsort(stage[order], kind="stable")]


_SPATIAL_POOL = tuple(SerializationPattern(c, SerializationDims.SPATIAL_3D)
                      for c in Curve)
_TEMPORAL_POOL = tuple(SerializationPattern(c, SerializationDims.SPATIOTEMPORAL_4D)
                       for c in Curve)


def make_schedule(seed: int, n_layers: int, mix: ScheduleMix | str = ScheduleMix.MIXED
                  ) -> tuple[tuple[SerializationPattern, ...], ...]:
    """Shuffle the pattern pool independently per layer: one pattern ordering
    per layer, a pure function of (seed, layer index).

    ``spatial_only`` layers shuffle the four 3D patterns, ``temporal_only``
    the four 4D patterns, and ``mixed`` the union of both pools.
    """
    seed, n_layers = _seed(seed, "seed"), _number(n_layers, "n_layers", int)
    mix = ScheduleMix(mix)
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    pool = {
        ScheduleMix.SPATIAL_ONLY: _SPATIAL_POOL,
        ScheduleMix.TEMPORAL_ONLY: _TEMPORAL_POOL,
        ScheduleMix.MIXED: _SPATIAL_POOL + _TEMPORAL_POOL,
    }[mix]
    layers = []
    for layer in range(n_layers):
        rng = np.random.default_rng((seed, layer))
        order = rng.permutation(len(pool))
        layers.append(tuple(pool[i] for i in order))
    return tuple(layers)
