"""Decentralized identity and access management for IoT devices.

A miniature permissioned ledger (execute-order-validate, m-of-n
endorsement, MVCC, hash-chained blocks), a DID toolkit whose documents
are built from the chain's identity records, a content store for asset
payloads, a deterministic telemetry simulator, and a CLI gateway tying
them into an end-to-end register / login / upload / query / dedup flow.
"""

__version__ = "0.1.0"
