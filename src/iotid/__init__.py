"""Decentralized identity and access management for IoT devices.

A miniature permissioned ledger (execute-order-validate, m-of-n
endorsement, MVCC, hash-chained blocks), a DID toolkit with
content-addressed document storage, a deterministic telemetry simulator,
and a CLI gateway tying them into an end-to-end register / login /
upload / query / dedup flow.
"""

__version__ = "0.1.0"
