"""Exact simulator and security analyzer for conjugate-coding public-key
encryption schemes."""

__version__ = "0.1.0"

from .schemes import (  # noqa: F401
    Ciphertext,
    PrivateKey,
    PublicKey,
    SchemeId,
    decrypt,
    encrypt,
    keygen,
)
