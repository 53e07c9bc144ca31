"""Known-answer vectors for the cipher suite.

Captured at 6bdc836 from the scalar ``Prf`` / ``keystream`` /
``DeterministicCipher`` / ``RandomizedCipher`` / ``chain_digest`` — the
straight-line twins the one implementation in
:mod:`repro.crypto.kernels` replaced — so it is pinned to the bytes both
produced.  Long outputs are held as their SHA-256.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.crypto import DeterministicCipher, Prf, RandomizedCipher
from repro.crypto.kernels import CHAIN_INIT, batch_keystream, extend_chain

from tests.crypto.hashchain import chain_digest
from tests.crypto.stream import keystream

KEY = bytes(range(32))
NONCE = bytes(range(100, 116))


def _plaintext(n: int) -> bytes:
    return bytes((7 * i + 3) % 256 for i in range(n))


def _short(data: bytes) -> str:
    return data.hex() if len(data) <= 80 else hashlib.sha256(data).hexdigest()


PRF = {
    (b"hello",): "4d935453aceab39315f567f31ee5853fbc5004288c8fe1c836539a8b55e6881e",
    ("hello",): "83c021bef54399974003548f8680e2214f584acc1fdae01c729be61611552a81",
    (-123456789,): "505d832cc197c536d7b40e316ce4288ff3bbcfcd60ee98d051d7fe87779e6d95",
    (b"subkey", "det-mac", 42): (
        "dcc28bc33749acb7f448bce6e88ba1ca51484501fcc9011de2d520d6d18b333a"
    ),
}

KEYSTREAM = {
    0: "",
    1: "79",
    31: "79d47be0e24d86a87b6180c862f63a3f244f2dc3fdba896b5f0231a0afa581",
    32: "79d47be0e24d86a87b6180c862f63a3f244f2dc3fdba896b5f0231a0afa581bd",
    33: "79d47be0e24d86a87b6180c862f63a3f244f2dc3fdba896b5f0231a0afa581bd97",
    200: "f632826ee6f91d93211b2dd444e803470f546347b1842fdb06c9cdc24ef04cd0",
}

DET = {
    0: "5e9a8f354b70a1434f0c1a98bdfa88ec",
    1: "20509c43c9221e86cde19b809dcd943da1",
    40: (
        "8b6be009ff69fa763fad0840e7cdf9e360737fe5ca443bfc84bb9aeebe79b839"
        "58bb1033c2853973fa99888b94409dd792243db240888539"
    ),
    208: "99a88821f1cc700f0e5329f41ac3d732edad490af17bf49f929dd90e00a3fe37",
}

# One cipher, ``rng=random.Random(2021)``, the four widths in this order.
ND = {
    0: "ff361ad668067a67ccb4b9db0ffd37a193618ac991a7d253b9a4215a0986172d",
    1: "8bd04a8be18fd646ea2b513fc579f5e0a3f61fcd68167b8a10688c8cec50c04933",
    40: (
        "a2b590a24a97df08f9ef3ff90ad5877135dca714eb0894b986622ee1fcca7ba2"
        "4eaa9f4f5ea9445d1d8dda127113145c9a93c9ae0dc7c598e3e64cda839ad771"
        "3ca8df984af51cd2"
    ),
    208: "f33837cfbd1b376992488192b97145bf814cd0146ecf44b7c5b1cb573a8f02e9",
}

CHAIN_ITEMS = [_plaintext(n) for n in (5, 0, 16, 40, 1, 33, 64, 208)]
CHAIN = {
    0: "17ec3a5fd7a7464b6dbef06a3c9076e80e2eb80996c7893793b92ecbd4ae8df2",
    1: "be1096b9f35a99d3cf166d1b6e60651232bd8071ddb0d82a7a3e23d57d0730b6",
    8: "4cb9403ec4556983a90e37df7bc735291d7dec50efe6b235fb7f10fa7057d01e",
}


@pytest.mark.parametrize("parts", PRF, ids=["bytes", "str", "int", "multi-part"])
def test_prf(parts):
    assert Prf(KEY)(*parts).hex() == PRF[parts]


@pytest.mark.parametrize("length", KEYSTREAM)
def test_keystream(length):
    assert _short(keystream(KEY, NONCE, length)) == KEYSTREAM[length]
    assert _short(batch_keystream(KEY, [(NONCE, length)])[0]) == KEYSTREAM[length]


@pytest.mark.parametrize("width", DET)
def test_det(width):
    cipher = DeterministicCipher(KEY)
    ciphertext = cipher.encrypt(_plaintext(width))
    assert _short(ciphertext) == DET[width]
    assert cipher.encrypt_many([_plaintext(width)]) == [ciphertext]
    assert cipher.decrypt(ciphertext) == _plaintext(width)


def test_nd():
    cipher = RandomizedCipher(KEY, rng=random.Random(2021))
    ciphertexts = cipher.encrypt_many([_plaintext(width) for width in ND])
    assert [_short(c) for c in ciphertexts] == list(ND.values())
    assert cipher.decrypt_many(ciphertexts) == [_plaintext(width) for width in ND]


@pytest.mark.parametrize("items", CHAIN)
def test_chain(items):
    assert chain_digest(CHAIN_ITEMS[:items]).hex() == CHAIN[items]
    assert extend_chain(CHAIN_INIT, CHAIN_ITEMS[:items]).hex() == CHAIN[items]
