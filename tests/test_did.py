"""Identity primitives: keys, addresses, DIDs, documents, proofs.

Expected constants were derived outside this package: Ed25519 public keys
via the cryptography library directly, addresses and method ids by
slicing sha256 digests by hand.
"""

import hashlib
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iotid.did import (
    Address,
    Did,
    DidDocument,
    MalformedDid,
    derive_address,
    format_did,
    generate_keypair,
    make_did,
    make_possession_proof,
    parse_did,
    verify_possession_proof,
    verify_signature,
)

SEED_01 = bytes([1]) * 32
PUB_01 = "8a88e3dd7409f195fd52db2d3cba5d72ca6709bf1d94121bf3748801b40f6f5c"
ADDR_01 = "0x34750f98bd59fcfc946da45aaabe933be154a4b5"
DID_01 = "did:iotid:34750f98bd59fcfc946da45aaabe933b"

GOLDEN = Path(__file__).parent / "golden" / "did_document.json"


def test_keypair_is_seed_deterministic():
    assert generate_keypair(SEED_01).public_key.hex() == PUB_01
    assert generate_keypair(SEED_01).public_key == generate_keypair(SEED_01).public_key


def test_keypair_rejects_bad_seed_length():
    with pytest.raises(ValueError):
        generate_keypair(b"short")


def test_keypair_repr_hides_private_half():
    kp = generate_keypair(SEED_01)
    assert SEED_01.hex() not in repr(kp)


def test_signature_round_trip():
    kp = generate_keypair(SEED_01)
    sig = kp.sign(b"message")
    assert verify_signature(kp.public_key, b"message", sig)
    assert not verify_signature(kp.public_key, b"other", sig)


def test_verify_never_raises_on_garbage():
    kp = generate_keypair(SEED_01)
    assert not verify_signature(kp.public_key, b"m", b"not a signature")
    assert not verify_signature(b"\x00" * 32, b"m", b"\x00" * 64)
    assert not verify_signature(b"", b"m", b"")


def test_address_derivation():
    pub = bytes.fromhex(PUB_01)
    assert str(derive_address(pub)) == ADDR_01
    assert derive_address(pub).raw == hashlib.sha256(pub).digest()[:20]
    for bad in [pub[:31], pub + b"\x00", b""]:
        with pytest.raises(ValueError, match="public key must be 32 bytes"):
            derive_address(bad)


def test_address_text_round_trip():
    addr = Address.from_text(ADDR_01)
    assert str(addr) == ADDR_01
    for bad in ["34750f", "0xZZ", "0x" + "a" * 39, "0X" + "a" * 40]:
        with pytest.raises(ValueError):
            Address.from_text(bad)
    for raw in [bytes(19), bytes(21), b""]:
        with pytest.raises(ValueError, match="address must be 20 bytes"):
            Address(raw)


def test_did_from_key_hash():
    assert str(make_did(bytes.fromhex(PUB_01))) == DID_01


def test_did_from_technology_id():
    did = make_did(bytes.fromhex(PUB_01), method_id="350123451234560")
    assert str(did) == "did:iotid:350123451234560"


def test_parse_format_round_trip():
    did = parse_did("did:sov:1234AbxfgHufgh")
    assert did.method == "sov"
    assert did.method_id == "1234AbxfgHufgh"
    assert format_did(did) == "did:sov:1234AbxfgHufgh"


@given(method=st.from_regex(r"[a-z0-9]{1,8}", fullmatch=True),
       method_id=st.from_regex(r"[a-zA-Z0-9]{1,16}", fullmatch=True))
def test_parse_format_inverse(method, method_id):
    text = f"did:{method}:{method_id}"
    assert format_did(parse_did(text)) == text


@pytest.mark.parametrize("bad", [
    "",
    "did",
    "did:iotid",
    "did:iotid:",
    "DID:iotid:abc",
    "did:IOTID:abc",
    "did:iotid:has space",
    "did:iotid:semi;colon",
    "urn:iotid:abc",
    "did::abc",
])
def test_malformed_dids_rejected(bad):
    with pytest.raises(MalformedDid):
        parse_did(bad)


def test_did_constructor_validates():
    with pytest.raises(MalformedDid):
        Did(method="UPPER", method_id="x")
    with pytest.raises(MalformedDid):
        Did(method="iotid", method_id="bad/chars")


def test_document_golden_bytes():
    # a document as earlier versions stored it decodes; its service
    # endpoints, which nothing reads, are dropped
    golden = GOLDEN.read_bytes()
    assert hashlib.sha256(golden).hexdigest() == \
        "0baab9fa6de6b79c9e38d6c0d20bbd80c37c7c4934f7bcd0197b3fc7ed11437b"
    assert DidDocument.from_bytes(golden) == DidDocument(
        id=parse_did(DID_01),
        public_key_hex=PUB_01,
        owner=Address.from_text(ADDR_01),
        created=1700000000,
    )


def test_document_requires_public_key():
    with pytest.raises(ValueError):
        DidDocument(id=parse_did(DID_01), public_key_hex="",
                    owner=Address.from_text(ADDR_01), created=0)


def test_possession_proof_round_trip():
    kp = generate_keypair(SEED_01)
    did = make_did(kp.public_key)
    owner = derive_address(kp.public_key)
    proof = make_possession_proof(kp, did, owner)
    assert verify_possession_proof(kp.public_key, did, owner, proof)


def test_possession_proof_binds_every_field():
    kp = generate_keypair(SEED_01)
    other = generate_keypair(bytes([2]) * 32)
    did = make_did(kp.public_key)
    owner = derive_address(kp.public_key)
    proof = make_possession_proof(kp, did, owner)
    # wrong owner, wrong did, wrong key: each must break verification
    assert not verify_possession_proof(kp.public_key, did,
                                       derive_address(other.public_key), proof)
    assert not verify_possession_proof(kp.public_key, make_did(other.public_key),
                                       owner, proof)
    assert not verify_possession_proof(other.public_key, did, owner, proof)
    assert not verify_possession_proof(kp.public_key, did, owner, b"junk")
