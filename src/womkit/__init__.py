"""Multi-round write-once memory codes over GF(2^n)."""

from .bitwords import BitWord, count_above, dominates, enumerate_above, subset_rank, subset_unrank
from .block_codec import (
    BlockState, NoEncoding, RoundMessage, SequencingError, check_block, decode_round, encode_round, encode_round1,
    in_guaranteed_regime, search_block_encoding,
)
from .capacity import (
    RatePoint, WeightVector, WomParams, achieved_rate, derive_parameters, entropy, in_capacity_region,
    inverse_entropy, optimal_point,
)
from .full_codec import (
    FullParams, full_encode_round, memory_to_states, pack_messages, states_to_memory, unpack_messages,
)
from .gf2n import canonical_spec, mul_bits
from .hashfam import hash_apply, image_fraction_audit, lhl_exact_distance
from .wom_device import (
    BadMagic, ChecksumMismatch, Device, ImageFormatError, MalformedImage, TruncatedImage, WriteOnceViolation,
    apply_write, load_image, save_image,
)

__version__ = "0.1.0"
