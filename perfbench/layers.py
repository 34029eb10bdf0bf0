"""Per-layer metrics derived from a traced run's spans.

Three kinds of figure, each with a fixed op selection so a metric means
the same thing on every commit (times in reference seconds, speed.py):

- times per tx or per block: spans from traced ops of the timed phase;
- exact counts (``*_calls_per_tx``, byte counts, ratios): the same traced
  ops, or the journal bytes the timed phase appended.  A run makes a fixed
  number of ops from seeded inputs, so these repeat exactly per seed;
- times per call (``*_ms`` with no ``per_``): every call in the traced
  run, set-up and checks included, because some layers (open, verify,
  the gateway and CLI) are reached on the warm workloads only there.
"""

from __future__ import annotations

from tracing import NAME, OK, OP, PARENT, START, END, N, self_times


# metrics that must repeat exactly across runs of one seed
EXACT_COUNTS = (
    "ledger.executions_per_tx", "ledger.txs_per_block", "ledger.journal_bytes_per_tx",
    "ledger.valid_ratio", "ledger.mvcc_conflict_ratio", "ledger.policy_failure_ratio",
    "did.verify_calls_per_tx", "did.sign_calls_per_tx",
    "did.generate_keypair_calls_per_op", "codec.canonical_json_calls_per_tx",
    "codec.canonical_json_bytes_per_tx", "codec.sha256_calls_per_tx",
    "store.get_calls_per_tx", "store.bytes_written_per_tx",
    "assets.duplicate_refusal_ratio",
)


class _Agg:
    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.n = 0


def _aggregate(spans, keep):
    """name -> _Agg over the spans `keep` accepts; also the parent-aware
    sums the metric list needs."""
    selfs = self_times(spans)
    by_name: dict[str, _Agg] = {}
    under: dict[tuple[str, str], float] = {}
    for rec, own in zip(spans, selfs):
        if not keep(rec):
            continue
        agg = by_name.setdefault(rec[NAME], _Agg())
        agg.calls += 1
        dur = rec[END] - rec[START]
        agg.total += dur
        agg.self_total += own
        if isinstance(rec[N], int):
            agg.n += rec[N]
        if rec[PARENT] >= 0:
            key = (rec[NAME], spans[rec[PARENT]][NAME])
            under[key] = under.get(key, 0.0) + dur
    return by_name, under


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, wl, traced_ops: int, traced_s: float,
                  untraced_ops: int, untraced_s: float) -> dict[str, float]:
    timed, timed_under = _aggregate(spans, lambda r: r[OP] >= 0)
    every, _ = _aggregate(spans, lambda r: True)
    empty = _Agg()

    def t(name):
        return timed.get(name, empty)

    def mean_ms(name):
        agg = every.get(name, empty)
        return _div(agg.total, agg.calls) * 1e3

    tx_t = sum(1 for r in spans if r[NAME] == "ledger.build" and r[OK] and r[OP] >= 0)
    blocks_t = t("ledger.commit").calls
    ranges = [r[N] for r in spans if r[NAME] == "ledger.range" and r[OK]]
    facts = wl.timed_facts
    flags = facts["flags"]
    uploads = [got for op, got in wl.observed.items() if op >= 0]
    login = every.get("idm.login_complete", empty)
    cli_main = every.get("cli.main", empty)

    def per_tx_ms(value):
        return _div(value, tx_t) * 1e3

    def per_block_ms(value):
        return _div(value, blocks_t) * 1e3

    m = {
        "ledger.execute_self_ms_per_tx": per_tx_ms(t("ledger.execute").self_total),
        "ledger.executions_per_tx": _div(t("ledger.execute").calls, tx_t),
        "ledger.endorse_self_ms_per_tx": per_tx_ms(t("ledger.endorse").self_total),
        "ledger.validate_policy_ms_per_tx": per_tx_ms(
            timed_under.get(("did.verify", "ledger.validate"), 0.0)),
        "ledger.validate_mvcc_ms_per_tx": per_tx_ms(t("ledger.validate").self_total),
        "ledger.order_ms_per_block": per_block_ms(t("ledger.order").total),
        "ledger.commit_self_ms_per_block": per_block_ms(t("ledger.commit").self_total),
        "ledger.apply_ms_per_block": per_block_ms(
            timed_under.get(("ledger.apply", "ledger.commit"), 0.0)),
        "ledger.txs_per_block": _div(facts["txs"], facts["blocks"]),
        "ledger.journal_bytes_per_tx": _div(facts["bytes"], facts["txs"]),
        "ledger.open_ms": mean_ms("ledger.open"),
        "ledger.block_number_of_ms": mean_ms("ledger.block_number_of"),
        "ledger.verify_chain_ms": mean_ms("ledger.verify_chain"),
        "ledger.range_ms": mean_ms("ledger.range"),
        "ledger.range_keys_scanned_per_row": _div(sum(s for s, _ in ranges),
                                                  sum(r for _, r in ranges)),
        "ledger.valid_ratio": _div(flags["VALID"], facts["txs"]),
        "ledger.mvcc_conflict_ratio": _div(flags["MVCC_CONFLICT"], facts["txs"]),
        "ledger.policy_failure_ratio": _div(flags["POLICY_FAILURE"], facts["txs"]),
        "did.verify_calls_per_tx": _div(t("did.verify").calls, tx_t),
        "did.verify_ms_per_tx": per_tx_ms(t("did.verify").total),
        "did.sign_calls_per_tx": _div(t("did.sign").calls, tx_t),
        "did.sign_ms_per_tx": per_tx_ms(t("did.sign").total),
        "did.generate_keypair_calls_per_op": _div(t("did.generate_keypair").calls, traced_ops),
        "codec.canonical_json_calls_per_tx": _div(t("codec.canonical_json").calls, tx_t),
        "codec.canonical_json_bytes_per_tx": _div(t("codec.canonical_json").n, tx_t),
        "codec.canonical_json_ms_per_tx": per_tx_ms(t("codec.canonical_json").total),
        "codec.sha256_calls_per_tx": _div(t("codec.sha256").calls, tx_t),
        "store.get_calls_per_tx": _div(t("store.get").calls, tx_t),
        "store.get_ms_per_tx": per_tx_ms(t("store.get").total),
        "store.put_ms_per_tx": per_tx_ms(t("store.put").total),
        "store.bytes_written_per_tx": _div(t("store.put").n, tx_t),
        "idm.login_ms": _div(every.get("idm.login_begin", empty).total + login.total,
                             login.calls) * 1e3,
        "idm.resolve_did_ms": mean_ms("idm.resolve_did"),
        "assets.query_owned_ms": mean_ms("assets.query_owned"),
        "assets.query_all_ms": mean_ms("assets.query_all"),
        "assets.duplicate_refusal_ratio": _div(
            sum(1 for got in uploads if got == "DuplicateAsset"), len(uploads)),
        "gateway.next_nonce_ms": mean_ms("gateway.next_nonce"),
        "gateway.cmd_upload_ms": mean_ms("gateway.cmd_upload"),
        "gateway.cmd_list_mine_ms": mean_ms("gateway.cmd_list_mine"),
        "gateway.cmd_list_all_ms": mean_ms("gateway.cmd_list_all"),
        "gateway.cmd_login_ms": mean_ms("gateway.cmd_login"),
        "gateway.cmd_verify_ms": mean_ms("gateway.cmd_verify"),
        "cli.overhead_ms": _div(cli_main.self_total, cli_main.calls) * 1e3,
        "sim.generate_ms": mean_ms("sim.generate"),
        "trace.ops_per_s_traced": _div(traced_ops, traced_s),
        "trace.ops_per_s_untraced": _div(untraced_ops, untraced_s),
    }
    m["trace.overhead_ratio"] = (
        _div(m["trace.ops_per_s_untraced"], m["trace.ops_per_s_traced"]) - 1.0)
    return m
