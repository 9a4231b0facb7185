from amisim.crypto.paillier import (
    PaillierPrivateKey,
    PaillierPublicKey,
    READING_SCALE,
    decode_reading,
    decrypt,
    draw_r,
    encode_reading,
    encrypt,
    hom_add,
    paillier_keygen,
    randomizers,
)
from amisim.crypto.pairing import ExponentSuite, make_suite
from amisim.crypto.signatures import (
    SigKeypair,
    batch_verify,
    canonical_payload,
    sig_keygen,
    sign,
    verify_single,
)

__all__ = [
    "ExponentSuite",
    "PaillierPrivateKey",
    "PaillierPublicKey",
    "READING_SCALE",
    "SigKeypair",
    "batch_verify",
    "canonical_payload",
    "decode_reading",
    "decrypt",
    "draw_r",
    "encode_reading",
    "encrypt",
    "hom_add",
    "make_suite",
    "paillier_keygen",
    "randomizers",
    "sig_keygen",
    "sign",
    "verify_single",
]
