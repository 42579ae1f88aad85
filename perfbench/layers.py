"""Which engine entry points the traced run wraps, and under which span
names.  Span names are the per-layer metric names without the ``_ms``
suffix; ``exec.<Operator>`` spans come from the operator dispatch table.

Only the traced run calls :func:`instrument`; the untraced run executes
the engine exactly as shipped.
"""

from __future__ import annotations

import numpy as np


def _settled(tracer):
    def on_result(result) -> None:
        dist = result.dist
        if dist.dtype.kind == "f":
            settled = np.count_nonzero(np.isfinite(dist) & (dist != -1))
        else:
            settled = np.count_nonzero(dist != -1)
        tracer.add("graph.settled", settled)
        tracer.add("graph.vertices", len(dist))

    return on_result


def instrument(tracer, *, server: bool = False) -> None:
    """Wrap every layer boundary the per-layer metrics name."""
    import repro.api as api
    import repro.exec.kernels as kernels
    import repro.exec.operators as operators
    import repro.graph.library as library
    from repro.graph.domain import VertexDomain
    from repro.plan.binder import Binder
    from repro.storage.table import Table
    from repro.storage.wal import WriteAheadLog

    tracer.propagate_through_executors()
    # sql / plan
    tracer.patch(api, "parse_statement", "sql.parse")
    tracer.patch(Binder, "bind_statement", "plan.bind")
    tracer.patch(api, "optimize", "plan.optimize")
    # storage
    tracer.patch(api.Database, "pin_snapshot", "storage.pin_snapshot")
    tracer.patch(api.Database, "_run_insert", "storage.insert_commit")
    tracer.patch(Table, "_publish", "storage.version_install")
    tracer.patch(WriteAheadLog, "sync", "storage.wal_sync")
    # exec: one span per physical operator, named like EXPLAIN names it
    tracer.patch_dispatch(
        operators._DISPATCH, lambda node_type: f"exec.{node_type.__name__[1:]}"
    )
    for kernel in ("codify", "group_ids", "join_indices", "grouped_aggregate"):
        tracer.patch(kernels, kernel, "exec.kernel")
    tracer.patch(api.Result, "rows", "exec.result_rows")
    # graph
    tracer.patch(VertexDomain, "__init__", "graph.domain_build")
    tracer.patch(VertexDomain, "encode", "graph.endpoint_encode")
    tracer.patch(library, "build_csr", "graph.csr_build")
    tracer.patch(library, "bfs", "graph.traverse", on_result=_settled(tracer))
    tracer.patch(library, "dijkstra", "graph.traverse", on_result=_settled(tracer))
    tracer.patch(library, "reconstruct_path", "graph.path")
    tracer.patch(library.GraphLibrary, "solve_encoded", "graph.solve_self")
    tracer.patch(api.GraphIndexManager, "apply_write", "graph.overlay_apply")
    if server:
        import repro.server.protocol as protocol
        import repro.server.server as served
        from repro.session import PreparedStatement

        tracer.patch(served, "encode_frame", "server.frame")
        tracer.patch(protocol, "decode_payload", "server.frame")
        # engine execute inside the server: a root span per (prepared)
        # statement, tagged with its SQL to match the client's kind
        tracer.patch(
            PreparedStatement, "execute", "server.statement",
            tag_of=lambda statement, *_: statement.sql,
        )


def stats_snapshot(db) -> dict:
    """The engine's cumulative counters the per-layer ratios are cut from."""
    cache = db.cache_stats()
    storage = db.storage_stats()
    return {
        "plan": cache["plan_cache"],
        "graph": cache["graph_index_cache"],
        "zone": {
            "total": storage.get("morsels_total", 0),
            "skipped": storage.get("morsels_skipped", 0),
        },
        "factorize": dict(storage.get("factorize", {})),
        "kernel_fallbacks": db.kernel_stats().get("fallback_total", 0),
        "morsels": db.parallel_stats().get("morsel_total", 0),
        "wal": db.wal_stats(),
    }


def stats_delta(before: dict, after: dict) -> dict:
    """Counter deltas over the traced phase (ratios need both ends)."""

    def diff(key, sub):
        return after[key].get(sub, 0) - before[key].get(sub, 0)

    factorize = {
        k: after["factorize"].get(k, 0) - before["factorize"].get(k, 0)
        for k in after["factorize"]
    }
    return {
        "plan_hits": diff("plan", "hits") + diff("plan", "normalized_hits"),
        "plan_lookups": diff("plan", "hits") + diff("plan", "misses"),
        "plan_invalidations": diff("plan", "invalidations"),
        "graph_hits": diff("graph", "hits"),
        "graph_misses": diff("graph", "misses"),
        "zone_total": diff("zone", "total"),
        "zone_skipped": diff("zone", "skipped"),
        "factorize": factorize,
        "kernel_fallbacks": after["kernel_fallbacks"] - before["kernel_fallbacks"],
        "morsels": after["morsels"] - before["morsels"],
        "wal_bytes": diff("wal", "bytes_written"),
    }
