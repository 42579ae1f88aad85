"""The repository benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload ldbc_single --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the engine exactly
as shipped.  ``--trace 1`` runs half the time untraced and half with
every layer boundary wrapped (:mod:`layers`), and reports the per-layer
metrics plus the tracing overhead (traced minus untraced iteration
median).  Lines starting with ``#`` are for people: provenance, every
per-operation latency by name, and (traced) the layer split per
statement kind and of its slowest tenth.  The last line is the JSON
result.  See ``perfbench/README.md`` for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import sys
import traceback
from functools import partial

import served
import workloads
from common import (
    SCALE,
    TAIL_PERCENTILE,
    WORK_ROOT,
    cpu_count,
    cpu_ticks,
    import_engine,
    percentile,
    source_digest,
    tail_label,
)

END_TO_END = {
    "setup_s": "s",
    "iter_p50_ms": "ms",
    "iter_tail_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: exec operators reported by name; the rest sum into exec.other.self_ms
EXEC_OPERATORS = (
    "Scan", "Filter", "Project", "Aggregate", "HashJoin", "Sort", "Limit",
    "Distinct", "GraphSelect",
)

PER_LAYER = {
    "graph.domain_build_ms": "ms/stmt",
    "graph.endpoint_encode_ms": "ms/stmt",
    "graph.csr_build_ms": "ms/stmt",
    "graph.csr_builds": "count/stmt",
    "graph.index_hit_ratio": "ratio",
    "graph.traverse_ms": "ms/stmt",
    "graph.traversals": "count/stmt",
    "graph.settled_ratio": "ratio",
    "graph.path_ms": "ms/stmt",
    "graph.solve_self_ms": "ms/stmt",
    "graph.overlay_apply_ms": "ms/stmt",
    "sql.parse_ms": "ms/stmt",
    "plan.bind_ms": "ms/stmt",
    "plan.optimize_ms": "ms/stmt",
    "plan.cache_hit_ratio": "ratio",
    "plan.invalidations": "count/stmt",
    "storage.pin_snapshot_ms": "ms/stmt",
    "storage.insert_commit_ms": "ms/stmt",
    "storage.version_install_ms": "ms/stmt",
    "storage.wal_sync_ms": "ms/stmt",
    "storage.wal_bytes_per_user_byte": "ratio",
    "storage.zone_skip_ratio": "ratio",
    "storage.factorize_hit_ratio": "ratio",
    **{f"exec.{op}.self_ms": "ms/stmt" for op in EXEC_OPERATORS},
    "exec.other.self_ms": "ms/stmt",
    "exec.kernel_ms": "ms/stmt",
    "exec.result_rows_ms": "ms/stmt",
    "exec.kernel_fallbacks": "count/stmt",
    "exec.parallel_morsels": "count/stmt",
    "client.roundtrip_ms": "ms/stmt",
    "server.statement_ms": "ms/stmt",
    "server.frame_ms": "ms/stmt",
    "server.overhead_ms": "ms/stmt",
    "server.rejected": "count/stmt",
    "ldbc.generate_s": "s",
    "ldbc.load_s": "s",
    "stmt.untraced_ms": "ms/stmt",
    "trace.overhead_ms": "ms",
}

#: An INSERT into ``knows`` carries two BIGINTs, a DATE and a DOUBLE.
KNOWS_ROW_BYTES = 32


WORKLOADS = {
    "ldbc_single": partial(workloads.run_in_process, workloads.LdbcSingle),
    "ldbc_batch": partial(workloads.run_in_process, workloads.LdbcBatch),
    "served_graph_oltp": served.run_served,
    "relational_scan": partial(workloads.run_in_process, workloads.RelationalScan),
}


# ---------------------------------------------------------------------------
def end_to_end(workload: str, out) -> dict:
    windows = out.windows or [(out.iterations, out.work_per_s)]
    tail = TAIL_PERCENTILE[workload]
    return {
        "setup_s": out.setup["setup_s"],
        "iter_p50_ms": 1e3 * statistics.median(statistics.median(it) for it, _ in windows),
        "iter_tail_ms": 1e3 * statistics.median(percentile(it, tail) for it, _ in windows),
        "work_per_s": statistics.median(rate for _, rate in windows),
        "peak_rss_mb": out.peak_rss_mb,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload: str, out) -> tuple[dict, dict]:
    """Per-layer metrics of the traced phase, plus the per-kind split."""
    trace = out.extra["trace"]
    n = max(1, trace["statements"])
    if workload == "served_graph_oltp":
        server = trace["server"]
        per_name = {k: tuple(v) for k, v in server["per_name"].items()}
        client_names, _ = trace["tracer"].self_times()
        per_name.update(client_names)
        counts, delta = server["counts"], server["delta"]
        roots = [r for r in server["roots"] if r[0] is not None]
        statement_s = sum(r[1] for r in roots)
        kinds = {"INSERT": "insert", "SELECT CHEAPEST": "q13", "SELECT FIRSTNAME": "lookup"}
        roots = [
            (next((v for k, v in kinds.items() if r[0].upper().startswith(k)), "other"), r[1], r[2])
            for r in roots
        ]
        rejected = server["rejected"]
    else:
        tracer = trace["tracer"]
        per_name, per_root = tracer.self_times()
        counts, delta = tracer.counts, trace["delta"]
        roots = [r for r in per_root.values() if r[0] is not None]
        statement_s = rejected = 0

    def ms(name: str) -> float:
        return 1e3 * per_name.get(name, (0.0, 0))[0] / n

    def count(name: str) -> float:
        return per_name.get(name, (0.0, 0))[1] / n

    factorize = delta["factorize"]
    hits = factorize.get("resting_hits", 0) + factorize.get("memo_hits", 0)
    inserts = per_name.get("storage.insert_commit", (0.0, 0))[1]
    roundtrip = ms("client.roundtrip")
    statement = 1e3 * statement_s / n
    other_ops = [
        name for name in per_name
        if name.startswith("exec.") and name not in ("exec.kernel", "exec.result_rows")
        and name[5:] not in EXEC_OPERATORS
    ]
    metrics = {
        "graph.domain_build_ms": ms("graph.domain_build"),
        "graph.endpoint_encode_ms": ms("graph.endpoint_encode"),
        "graph.csr_build_ms": ms("graph.csr_build"),
        "graph.csr_builds": count("graph.csr_build"),
        "graph.index_hit_ratio": _ratio(delta["graph_hits"], delta["graph_hits"] + delta["graph_misses"]),
        "graph.traverse_ms": ms("graph.traverse"),
        "graph.traversals": count("graph.traverse"),
        "graph.settled_ratio": _ratio(counts.get("graph.settled", 0), counts.get("graph.vertices", 0)),
        "graph.path_ms": ms("graph.path"),
        "graph.solve_self_ms": ms("graph.solve_self"),
        "graph.overlay_apply_ms": ms("graph.overlay_apply"),
        "sql.parse_ms": ms("sql.parse"),
        "plan.bind_ms": ms("plan.bind"),
        "plan.optimize_ms": ms("plan.optimize"),
        "plan.cache_hit_ratio": _ratio(delta["plan_hits"], delta["plan_lookups"]),
        "plan.invalidations": delta["plan_invalidations"] / n,
        "storage.pin_snapshot_ms": ms("storage.pin_snapshot"),
        "storage.insert_commit_ms": ms("storage.insert_commit"),
        "storage.version_install_ms": ms("storage.version_install"),
        "storage.wal_sync_ms": ms("storage.wal_sync"),
        "storage.wal_bytes_per_user_byte": _ratio(delta["wal_bytes"], inserts * KNOWS_ROW_BYTES),
        "storage.zone_skip_ratio": _ratio(delta["zone_skipped"], delta["zone_total"]),
        "storage.factorize_hit_ratio": _ratio(hits, hits + factorize.get("encodes", 0)),
        **{f"exec.{op}.self_ms": ms(f"exec.{op}") for op in EXEC_OPERATORS},
        "exec.other.self_ms": sum(ms(name) for name in other_ops),
        "exec.kernel_ms": ms("exec.kernel"),
        "exec.result_rows_ms": ms("exec.result_rows"),
        "exec.kernel_fallbacks": delta["kernel_fallbacks"] / n,
        "exec.parallel_morsels": delta["morsels"] / n,
        "client.roundtrip_ms": roundtrip,
        "server.statement_ms": statement,
        "server.frame_ms": ms("server.frame"),
        "server.overhead_ms": roundtrip - statement if roundtrip else 0.0,
        "server.rejected": rejected / n,
        "ldbc.generate_s": out.setup["generate_s"],
        "ldbc.load_s": out.setup["load_s"],
        "stmt.untraced_ms": ms("stmt") + ms("server.statement"),
        "trace.overhead_ms": 1e3 * (
            statistics.median(out.traced_iterations) - statistics.median(out.iterations)
        ),
    }
    return metrics, kind_split(roots)


def kind_split(roots) -> dict:
    """Per statement kind: mean duration and mean self time per layer,
    over all statements and over the slowest tenth."""
    by_kind: dict = {}
    for tag, duration, split in roots:
        by_kind.setdefault(tag, []).append((duration, split))
    report = {}
    for kind, items in sorted(by_kind.items()):
        items.sort(key=lambda item: item[0])
        slowest = items[-max(1, len(items) // 10):]
        report[kind] = {
            "n": len(items),
            "all": _mean_split(items),
            "slowest_tenth": _mean_split(slowest),
        }
    return report


def _mean_split(items) -> dict:
    names: dict = {}
    for _, split in items:
        for name, seconds in split.items():
            names[name] = names.get(name, 0.0) + seconds
    total = {name: round(1e3 * s / len(items), 3) for name, s in names.items()}
    top = dict(sorted(total.items(), key=lambda kv: -kv[1])[:8])
    return {"ms": round(1e3 * sum(d for d, _ in items) / len(items), 3), "layers_ms": top}


# ---------------------------------------------------------------------------
OP_NAMES = ("q13", "q14", "lookup", "insert")


def human_lines(workload: str, out) -> list[str]:
    """The per-operation metrics by their published names."""
    lines = []

    def latency(name: str, samples, scale: float = 1.0) -> None:
        if not samples:
            return
        q = min(95, tail_label(len(samples)))
        lines.append(f"{name}_p50_ms {1e3 * statistics.median(samples) / scale:.4f} ms (n={len(samples)})")
        if q > 50:
            lines.append(f"{name}_p{q}_ms {1e3 * percentile(samples, q) / scale:.4f} ms (n={len(samples)})")

    for name in OP_NAMES:
        latency(name, out.ops.get(name, []))
    if workload == "ldbc_batch":
        latency("batch_pair", out.ops.get("q13_batch", []), scale=128.0)
    if workload == "served_graph_oltp":
        lines.append(f"stmts_per_s {out.work_per_s:.2f} 1/s (n={out.statements})")
    if workload == "relational_scan":
        lines.append(f"scan_rows_per_s {out.work_per_s:.1f} 1/s (n={len(out.iterations)} passes)")
        for kind, samples in sorted(out.ops.items()):
            lines.append(f"scan.{kind}_p50_ms {1e3 * statistics.median(samples):.3f} ms (n={len(samples)})")
    lines.append(f"peak_rss_mb {out.peak_rss_mb:.2f} MB")
    lines.append(
        "setup_s {:.4f} s ({})".format(
            out.setup["setup_s"],
            ", ".join(f"{k}={v:.4f}" for k, v in out.setup.items() if k != "setup_s"),
        )
    )
    lines.append(f"failed_ops_ratio {out.failed / max(1, out.attempted):.6f} ratio (attempted={out.attempted})")
    lines.append("checks " + json.dumps(out.checks))
    return lines


def provenance(args, out, steal: float) -> dict:
    import numpy
    import scipy

    return {
        "commit": source_digest(),
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": SCALE,
        "sf": out.extra.get("sf"),
        "durability": out.extra.get("durability", "off"),
        "wal_fs": out.extra.get("wal_fs"),
        "latency_note": "latencies are this machine's; fsync goes to wal_fs, not a named device",
        "host_steal_pct": round(steal, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_engine()
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ticks = cpu_ticks()
    try:
        out = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), workdir)
    except Exception:  # noqa: BLE001 - report and exit without a result line
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    steal, total = (b - a for a, b in zip(ticks, cpu_ticks()))
    print("# provenance " + json.dumps(provenance(args, out, 100.0 * steal / max(1, total))))
    for line in human_lines(args.workload, out):
        print("# " + line)
    if args.trace:
        metrics, split = per_layer(args.workload, out)
        print("# layer split per statement kind " + json.dumps(split))
        units = PER_LAYER
    else:
        metrics, units = end_to_end(args.workload, out), END_TO_END
    result = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
