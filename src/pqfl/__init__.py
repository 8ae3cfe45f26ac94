"""Federated averaging protected by post-quantum digital signatures.

Modules:
    sig       pluggable signature schemes (Dilithium, Falcon, SPHINCS+, test)
    falcon    FN-DSA (Falcon) in Python/numpy
    libcrypto ML-DSA (Dilithium) and SLH-DSA (SPHINCS+) through an OpenSSL >= 3.5 libcrypto
    codec     canonical wire serialization
    fedcore   datasets, local training, aggregation
    protocol  signed model distribution / verified update aggregation
    channel   in-process and TCP transports with attack injection
    bench     timing/size metrics and reports
    cli       command-line entry point
"""

__version__ = "0.1.0"
