"""``served_graph_oltp``: writes beside reads over TCP.

The server runs in its own process (this file's ``__main__``), opened
with ``Database.open(dir, durability="commit")`` and a graph index on
``knows``.  The load side (:func:`run_served`) holds one connection per
CPU in one process and loops on each: INSERT one ``knows`` edge, look
up a person, Q13 for a random pair, look up another person - every
statement prepared.

Server protocol on the child's stdout, one JSON line each: ``ready``
(port, set-up split, initial edge count) after set-up, ``traced`` after
SIGUSR1 installed the layer wrappers.  SIGTERM drains the server and
makes the child write its spans and counter deltas to ``--dump``.
"""

from __future__ import annotations

import argparse
import asyncio
import datetime
import itertools
import json
import math
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import oracle
from common import (
    SCALE,
    SETUP_REPS,
    Outcome,
    cpu_count,
    filesystem_of,
    import_engine,
    median_of,
    peak_rss_mb,
    reset_peak_rss,
)
from spans import Tracer

SF = 30
INDEX_SQL = "CREATE GRAPH INDEX knows_graph ON knows EDGE (person1, person2)"
INSERT_SQL = "INSERT INTO knows VALUES (?, ?, ?, ?)"
LOOKUP_SQL = "SELECT firstName, lastName, gender FROM persons WHERE id = ?"
#: Served Q13 answers rechecked against the oracle per run.
RECHECK_SAMPLES = 20
WARMUP_ITERATIONS = 5
#: The timed phase is cut into windows of about this length; each
#: end-to-end figure is the median of its per-window values, so a burst
#: of host contention in one window does not decide a run.
WINDOW_S = 4.0
#: ``peak_rss_mb`` covers the timed phase's first this many statements.
#: The server's memory climbs with the statements it has served, so a
#: peak over a fixed time would rise and fall with how fast the host let
#: the loop run; a fixed amount of work does not (1,200 statements take
#: 3.5-8 s).
RSS_STATEMENTS = 1200


# ---------------------------------------------------------------------------
# server process
# ---------------------------------------------------------------------------
def _setup_once(directory: Path, seed: int):
    from repro import Database
    from repro.ldbc import generate, load_into

    start = time.perf_counter()
    net = generate(SF, scale=SCALE, seed=seed)
    generated = time.perf_counter()
    db = Database.open(str(directory), durability="commit")
    load_into(db, net)
    db.analyze()
    loaded = time.perf_counter()
    db.execute(INDEX_SQL)
    indexed = time.perf_counter()
    split = {
        "generate_s": generated - start,
        "load_s": loaded - generated,
        "index_s": indexed - loaded,
    }
    return db, net, split


def _remove_database(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    shutil.rmtree(f"{directory}.wal", ignore_errors=True)


async def _serve(args) -> None:
    from layers import instrument, stats_delta, stats_snapshot
    from repro.server.server import ReproServer

    reps = []
    db = None
    for rep in range(SETUP_REPS):
        if db is not None:
            db.close()
            _remove_database(Path(args.dir) / f"db{rep - 1}")
        start = time.perf_counter()
        db, net, split = _setup_once(Path(args.dir) / f"db{rep}", args.seed)
        reps.append({"setup_s": time.perf_counter() - start, **split})
    setup = median_of(reps)
    start = time.perf_counter()
    server = await ReproServer(db, "127.0.0.1", 0).start()
    setup["server_start_s"] = time.perf_counter() - start
    setup["setup_s"] += setup["server_start_s"]

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    state: dict = {}

    def start_trace() -> None:
        state["before"] = stats_snapshot(db)
        state["admission"] = server.admission.stats()
        tracer = state["tracer"] = Tracer()
        instrument(tracer, server=True)
        print(json.dumps({"traced": True}), flush=True)

    loop.add_signal_handler(signal.SIGUSR1, start_trace)
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    print(json.dumps({
        "ready": True,
        "port": server.address[1],
        "setup": setup,
        "edges": net.num_directed_edges,
        "wal_fs": filesystem_of(Path(args.dir)),
    }), flush=True)
    await stop.wait()
    await server.shutdown()
    tracer = state.get("tracer")
    if tracer is not None:
        tracer.restore()
    # counted after the drain, on the quiescent table, untraced
    dump = {"edges": db.execute("SELECT count(*) FROM knows").rows()[0][0]}
    if tracer is not None:
        per_name, per_root = tracer.self_times()
        dump.update({
            "per_name": per_name,
            "roots": [(tag, duration, dict(split)) for tag, duration, split in per_root.values()],
            "counts": dict(tracer.counts),
            "delta": stats_delta(state["before"], stats_snapshot(db)),
            "rejected": server.admission.stats()["rejected"] - state["admission"]["rejected"],
        })
    db.close()
    Path(args.dump).write_text(json.dumps(dump))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--dump", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    import_engine()
    asyncio.run(_serve(args))


# ---------------------------------------------------------------------------
# load process
# ---------------------------------------------------------------------------
class RssAtStatement:
    """The server's ``VmHWM`` from the start of the timed phase until its
    ``n``-th statement is answered (or the phase ends, if sooner)."""

    def __init__(self, pid: int, n: int):
        self.pid = pid
        self.n = n
        self.mb = None
        self._answered = itertools.count(1)

    def start(self) -> None:
        reset_peak_rss(self.pid)

    def answered(self) -> None:
        if next(self._answered) == self.n:
            self.mb = peak_rss_mb(self.pid)

    def finish(self) -> float:
        if self.mb is None:
            self.mb = peak_rss_mb(self.pid)
        return self.mb


class Connection:
    """One client connection running the OLTP loop on its own thread."""

    def __init__(self, address, net, seed: int, index: int, tracer_box: dict, rss: RssAtStatement):
        from repro.client import Client

        self.client = Client(*address)
        self.insert = self.client.prepare(INSERT_SQL)
        self.lookup = self.client.prepare(LOOKUP_SQL)
        self.q13 = self.client.prepare(
            "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER knows EDGE (person1, person2)"
        )
        self.ids = net.person_ids
        self.rng = np.random.default_rng([seed, 0x5E7, index])
        self.tracer_box = tracer_box
        self.rss = rss
        self.phase = "warmup"
        #: (phase, kind, sent, answered, ok, params, answer)
        self.log: list = []
        #: phase -> [(start, latency)] per loop iteration
        self.iterations: dict = {}

    def _op(self, kind: str, statement, params):
        tracer = self.tracer_box.get("tracer")
        sent = time.perf_counter()
        try:
            if tracer is None:
                rows = statement.execute(params).rows()
            else:
                rows = tracer.run_span(
                    "client.roundtrip", lambda: statement.execute(params).rows(), tag=kind
                )
            ok = True
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            rows, ok = repr(exc), False
        answered = time.perf_counter()
        self.log.append((self.phase, kind, sent, answered, ok, params, rows))
        if self.phase == "untraced":
            self.rss.answered()
        return answered - sent

    def iteration(self) -> float:
        a, b, c, d, e = (int(v) for v in self.rng.choice(self.ids, size=5))
        day = datetime.date(2013, 1, 1) + datetime.timedelta(days=int(self.rng.integers(365)))
        weight = round(float(self.rng.integers(1, 100)) / 10.0, 1)
        total = self._op("insert", self.insert, (a, b, day, weight))
        total += self._op("lookup", self.lookup, (c,))
        total += self._op("q13", self.q13, (d, e))
        total += self._op("lookup", self.lookup, (int(self.rng.choice(self.ids)),))
        return total

    def run_until(self, deadline: float) -> None:
        samples = self.iterations.setdefault(self.phase, [])
        while (start := time.perf_counter()) < deadline:
            samples.append((start, self.iteration()))


def _run_phase(connections, phase: str, seconds: float) -> tuple[float, float]:
    """Run every connection's loop for ``seconds``; returns the phase's
    start time and wall time."""
    for conn in connections:
        conn.phase = phase
    start = time.perf_counter()
    deadline = start + seconds
    threads = [threading.Thread(target=c.run_until, args=(deadline,)) for c in connections]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start, time.perf_counter() - start


def _windows(iterations, statements, start: float, wall_s: float) -> list:
    """Cut a phase into equal windows of about ``WINDOW_S``; per window
    the latencies of the iterations started in it and the statements
    per second sent in it."""
    count = max(1, round(wall_s / WINDOW_S))
    length = wall_s / count
    slots: list = [[] for _ in range(count)]
    for began, latency in iterations:
        slots[min(count - 1, int((began - start) / length))].append(latency)
    sent = np.bincount(
        np.minimum(count - 1, ((np.asarray(statements) - start) / length).astype(int)),
        minlength=count,
    )
    return [(latencies, sent[i] / length) for i, latencies in enumerate(slots) if latencies]


def _read_json_line(proc) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError("benchmark server exited before answering")
    return json.loads(line)


def run_served(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    from repro.ldbc import generate

    dump = workdir / "server_dump.json"
    err = open(workdir / "server_stderr.txt", "w")
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--dir", str(workdir),
         "--dump", str(dump), "--seed", str(seed)],
        stdout=subprocess.PIPE, stderr=err, text=True,
    )
    connections = []
    try:
        ready = _read_json_line(proc)
        net = generate(SF, scale=SCALE, seed=seed)
        address = ("127.0.0.1", ready["port"])
        tracer_box: dict = {}
        rss = RssAtStatement(proc.pid, RSS_STATEMENTS)
        connections = [
            Connection(address, net, seed, i, tracer_box, rss) for i in range(cpu_count())
        ]
        for conn in connections:
            for _ in range(WARMUP_ITERATIONS):
                conn.iteration()
        out = Outcome(setup=ready["setup"])
        rss.start()
        start, out.wall_s = _run_phase(connections, "untraced", seconds / 2 if trace else seconds)
        out.peak_rss_mb = rss.finish()
        if trace:
            tracer = tracer_box["tracer"] = Tracer()
            proc.send_signal(signal.SIGUSR1)
            _read_json_line(proc)
            _run_phase(connections, "traced", seconds / 2)
            tracer_box.pop("tracer")
        for conn in connections:
            conn.client.close()
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=120)
    finally:
        for conn in connections:
            conn.client.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        err.close()
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark server failed: {(workdir / 'server_stderr.txt').read_text()[-2000:]}")

    server_side = json.loads(dump.read_text())
    log = [entry for conn in connections for entry in conn.log]
    timed = [e for e in log if e[0] == "untraced"]
    for _, kind, sent, answered, ok, _, _ in timed:
        out.ops.setdefault(kind, []).append(answered - sent)
    untraced = [s for conn in connections for s in conn.iterations.get("untraced", [])]
    out.iterations = [latency for _, latency in untraced]
    out.traced_iterations = [
        latency for conn in connections for _, latency in conn.iterations.get("traced", [])
    ]
    out.statements = len(timed)
    out.work_per_s = len(timed) / out.wall_s
    out.windows = _windows(untraced, [e[2] for e in timed], start, out.wall_s)
    out.checks, out.attempted, out.failed = _verify(net, log, ready["edges"], server_side["edges"])
    out.extra.update({"sf": SF, "connections": len(connections), "durability": "commit",
                      "wal_fs": ready["wal_fs"]})
    if trace:
        out.extra["trace"] = {
            "server": server_side,
            "tracer": tracer,
            "statements": sum(1 for e in log if e[0] == "traced"),
        }
    return out


def _verify(net, log, initial_edges: int, final_count: int):
    people = {int(pid): (f, l, g) for pid, f, l, g in zip(
        net.person_ids, net.first_names, net.last_names, net.genders)}
    failed = sum(1 for e in log if not e[4])
    wrong_lookups = sum(
        1 for e in log
        if e[1] == "lookup" and e[4] and [tuple(r) for r in e[6]] != [people[e[5][0]]]
    )
    inserts = [e for e in log if e[1] == "insert" and e[4]]
    counts_ok = final_count == initial_edges + len(inserts)
    # Q13 answers: edges only ever get added, so an answer must lie
    # between the distance on every edge acknowledged before the query
    # was sent and the distance on every edge sent before it answered.
    src, dst, _, _ = net.directed_edges()
    queries = sorted((e for e in log if e[1] == "q13" and e[4]), key=lambda e: e[2])
    step = max(1, len(queries) // RECHECK_SAMPLES)
    wrong_q13 = 0
    for query in queries[::step][:RECHECK_SAMPLES]:
        sent, answered = query[2], query[3]
        lower = [e[5] for e in inserts if e[3] <= sent]
        upper = [e[5] for e in inserts if e[2] <= answered]
        bounds = []
        for extra in (upper, lower):
            s = np.concatenate([src, [p[0] for p in extra]]).astype(np.int64)
            d = np.concatenate([dst, [p[1] for p in extra]]).astype(np.int64)
            cost = oracle.PathOracle(s, d).costs([query[5]])[0]
            bounds.append(math.inf if cost is None else cost)
        got = query[6][0][0] if query[6] else math.inf
        if not bounds[0] <= got <= bounds[1]:
            wrong_q13 += 1
    checks = {
        "lookups": wrong_lookups == 0,
        "edge_count": counts_ok,
        "q13_recheck": wrong_q13 == 0,
    }
    wrong = wrong_lookups + wrong_q13 + (0 if counts_ok else 1)
    return checks, len(log), failed + wrong


if __name__ == "__main__":
    main()
