"""The four workloads.

Each runs a closed loop from one process against an engine built with
every ``Database`` default, records what it was answered, and checks
the answers against :mod:`oracle` after the timed phase.

* ``ldbc_single`` - Fig. 1a: single-pair Q13 then Q14 (cost and path)
  for one uniform random pair per iteration, SF30, no graph index.
* ``ldbc_batch`` - Fig. 1b: ``run_q13_batch`` with 128 pairs per
  statement on the same graph (refilling ``pairs`` each time).
* ``relational_scan`` - one fixed six-query pass over ``knows`` at
  SF100 per iteration: the only workload on the kernels, the morsel
  pool, resting encodings and zone maps.
* ``served_graph_oltp`` - see :mod:`served`.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

import oracle
from common import SCALE, SETUP_REPS, Outcome, PeakRss, median_of, run_loop
from layers import instrument, stats_delta, stats_snapshot
from spans import Tracer

LDBC_SF = 30
SCAN_SF = 100
BATCH_PAIRS = 128
WARMUP_ITERATIONS = 2


class InProcess:
    """Skeleton shared by the in-process workloads: set up, warm up,
    loop, and (in the traced run) loop again with the layers wrapped."""

    sf = LDBC_SF

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, 0xBE7C])
        self.tracer = None
        self.phase = "untraced"
        self.ops: dict = {}
        self.statements = {"untraced": 0, "traced": 0}

    def build(self) -> dict:
        from repro import Database
        from repro.ldbc import generate, load_into

        start = time.perf_counter()
        self.net = generate(self.sf, scale=SCALE, seed=self.seed)
        generated = time.perf_counter()
        self.db = Database()
        load_into(self.db, self.net)
        self.db.analyze()
        return {"generate_s": generated - start, "load_s": time.perf_counter() - generated}

    def close(self) -> None:
        self.db.close()

    def statement(self, kind: str, fn, *args):
        """Run one statement, timed; in the traced phase it is the root
        span every layer span below it attributes to."""
        start = time.perf_counter()
        if self.tracer is None:
            result = fn(*args)
        else:
            result = self.tracer.run_span("stmt", fn, *args, tag=kind)
        elapsed = time.perf_counter() - start
        self.ops.setdefault(self.phase, {}).setdefault(kind, []).append(elapsed)
        self.statements[self.phase] += 1
        return result, elapsed

    def work(self, wall_s: float) -> float:
        return self.statements["untraced"] / wall_s


def run_in_process(cls, seed: int, seconds: float, trace: bool, workdir=None) -> Outcome:
    """Run one in-process workload (``workdir`` is unused: nothing is
    written to disk)."""
    reps = []
    state = None
    for _ in range(SETUP_REPS):
        if state is not None:
            state.close()
        state = cls(seed)
        start = time.perf_counter()
        split = state.build()
        reps.append({"setup_s": time.perf_counter() - start, **split})
    out = Outcome(setup=median_of(reps))
    state.phase = "warmup"
    state.statements["warmup"] = 0
    for _ in range(WARMUP_ITERATIONS):
        state.step()
    state.phase = "untraced"
    untraced_s = seconds / 2 if trace else seconds
    with PeakRss() as rss:
        out.iterations, out.wall_s = run_loop(untraced_s, state.step)
    out.peak_rss_mb = rss.median_mb
    out.work_per_s = state.work(out.wall_s)
    out.statements = state.statements["untraced"]
    if trace:
        tracer = Tracer()
        before = stats_snapshot(state.db)
        instrument(tracer)
        state.tracer, state.phase = tracer, "traced"
        try:
            out.traced_iterations, _ = run_loop(seconds / 2, state.step)
        finally:
            tracer.restore()
            state.tracer = None
        out.extra["trace"] = {
            "tracer": tracer,
            "delta": stats_delta(before, stats_snapshot(state.db)),
            "statements": state.statements["traced"],
        }
    out.ops = state.ops.get("untraced", {})
    out.checks, out.attempted, out.failed = state.verify()
    out.extra.update(state.summary())
    state.close()
    return out


# ---------------------------------------------------------------------------
class LdbcSingle(InProcess):
    """Q13 then Q14 (cost, path) for one uniform random pair."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.q13: list = []
        self.q14: list = []

    def step(self) -> float:
        from repro.ldbc import Q13_SQL, Q14_VARIANT_SQL

        ids = self.net.person_ids
        source, dest = (int(v) for v in self.rng.choice(ids, size=2))
        rows13, t13 = self.statement("q13", lambda: self.db.execute(Q13_SQL, (source, dest)).rows())
        rows14, t14 = self.statement("q14", lambda: self.db.execute(Q14_VARIANT_SQL, (source, dest)).rows())
        self.q13.append((source, dest, rows13[0][0] if rows13 else None))
        if rows14:
            cost, path = rows14[0]
            edges = [(e["person1"], e["person2"], e["weight"]) for e in path.to_dicts()]
            self.q14.append((source, dest, cost, edges))
        else:
            self.q14.append((source, dest, None, None))
        return t13 + t14

    def verify(self):
        src, dst, _, weights = self.net.directed_edges()
        hops = oracle.PathOracle(src, dst)
        weighted = oracle.PathOracle(src, dst, oracle.q14_weights(weights))
        want13 = hops.costs((s, d) for s, d, _ in self.q13)
        want14 = weighted.costs((s, d) for s, d, _, _ in self.q14)
        wrong13 = sum(got != want for (_, _, got), want in zip(self.q13, want13))
        wrong14 = 0
        for (s, d, cost, edges), want in zip(self.q14, want14):
            if cost != want:
                wrong14 += 1
            elif cost is not None and not oracle.check_path(
                edges, s, d, cost, lambda w: int(np.trunc(w * 10.0))
            ):
                wrong14 += 1
        checks = {"q13_costs": wrong13 == 0, "q14_costs_and_paths": wrong14 == 0}
        return checks, len(self.q13) + len(self.q14), wrong13 + wrong14

    def summary(self) -> dict:
        return {"sf": self.sf, "pairs_reachable": sum(c is not None for _, _, c in self.q13)}


class LdbcBatch(InProcess):
    """One ``run_q13_batch`` statement over 128 uniform random pairs."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.batches: list = []

    def step(self) -> float:
        from repro.ldbc import run_q13_batch

        ids = self.net.person_ids
        pairs = [(int(a), int(b)) for a, b in self.rng.choice(ids, size=(BATCH_PAIRS, 2))]
        rows, elapsed = self.statement("q13_batch", run_q13_batch, self.db, pairs)
        self.batches.append((pairs, rows))
        return elapsed

    def verify(self):
        src, dst, _, _ = self.net.directed_edges()
        hops = oracle.PathOracle(src, dst)
        costs = iter(hops.costs(p for pairs, _ in self.batches for p in pairs))
        wrong = 0
        for pairs, rows in self.batches:
            want = [(s, d, c) for (s, d), c in zip(pairs, costs) if c is not None]
            if sorted(want) != sorted(tuple(r) for r in rows):
                wrong += 1
        return {"batch_costs": wrong == 0}, len(self.batches), wrong

    def work(self, wall_s: float) -> float:
        return self.statements["untraced"] * BATCH_PAIRS / wall_s

    def summary(self) -> dict:
        return {"sf": self.sf, "pairs_per_statement": BATCH_PAIRS}


# ---------------------------------------------------------------------------
SCAN_QUERIES = {
    "group_by": "SELECT person1, count(*), sum(weight) FROM knows GROUP BY person1",
    "join_group": (
        "SELECT p.gender, count(*), avg(k.weight) FROM knows k "
        "JOIN persons p ON k.person1 = p.id GROUP BY p.gender"
    ),
    "top_k": "SELECT person1, person2, weight FROM knows ORDER BY weight DESC LIMIT 100",
    # (person1, person2) is unique in knows, so DISTINCT keys on the
    # truncated weight instead: ~80% of the filtered rows are duplicates
    "distinct": "SELECT DISTINCT person1, CAST(weight AS BIGINT) FROM knows WHERE weight > ?",
    "selective": "SELECT count(*), sum(weight) FROM knows WHERE person1 < ?",
    "fof": (
        "SELECT count(DISTINCT k2.person2) FROM knows k1 "
        "JOIN knows k2 ON k1.person2 = k2.person1 WHERE k1.person1 = ?"
    ),
}
#: ``knows`` scans per pass (the self-join reads it twice) - with one
#: ``persons`` scan, the input rows a pass consumes.
KNOWS_SCANS_PER_PASS = 7
KEY_SHIFT = 1 << 24


def _pair_keys(p1, p2) -> np.ndarray:
    return np.asarray(p1, dtype=np.int64) * KEY_SHIFT + np.asarray(p2, dtype=np.int64)


class RelationalScan(InProcess):
    """The fixed six-query pass over ``knows`` at SF100.

    The parameters are fixed per graph so that every pass, and every
    seed's pass, does comparable work: ``weight > 2.0``, the 1% quantile
    of person ids, and the person whose friends-of-friends fan-out
    (sum of its friends' degrees) is the median one - a random person
    would swing a pass between 0.06 s and 1.5 s on hubs.
    """

    sf = SCAN_SF
    threshold = 2.0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.answers: list = []
        self.pass_rates: list = []

    def build(self) -> dict:
        split = super().build()
        p1, p2, _, _ = self.net.directed_edges()
        ids = np.sort(self.net.person_ids)
        self.bound = int(ids[len(ids) // 100])
        slot = np.searchsorted(ids, p1)
        degree = np.bincount(slot, minlength=len(ids))
        fan_out = np.bincount(slot, weights=degree[np.searchsorted(ids, p2)], minlength=len(ids))
        self.person = int(ids[np.argsort(fan_out, kind="stable")[len(ids) // 2]])
        self.input_rows = KNOWS_SCANS_PER_PASS * self.net.num_directed_edges + self.net.num_persons
        return split

    def step(self) -> float:
        params = {"distinct": (self.threshold,), "selective": (self.bound,), "fof": (self.person,)}
        rows = {}
        total = 0.0
        for kind, sql in SCAN_QUERIES.items():
            args = params.get(kind, ())
            rows[kind], elapsed = self.statement(kind, lambda: self.db.execute(sql, args).rows())
            total += elapsed
        # reduce to compact, comparable forms outside the timed region
        self.answers.append({
            "group_by": np.array(sorted(rows["group_by"]), dtype=np.float64),
            "join_group": {g: (c, a) for g, c, a in rows["join_group"]},
            "top_k": rows["top_k"],
            "distinct": _digest(_pair_keys(*zip(*rows["distinct"])) if rows["distinct"] else []),
            "selective": rows["selective"][0],
            "fof": rows["fof"][0][0],
        })
        if self.phase == "untraced":
            self.pass_rates.append(self.input_rows / total)
        return total

    def work(self, wall_s: float) -> float:
        return statistics.median(self.pass_rates)

    def verify(self):
        p1, p2, _, w = self.net.directed_edges()
        p1, p2, w = p1.astype(np.int64), p2.astype(np.int64), w.astype(np.float64)
        want_group = oracle.group_by_person1(p1, w)
        group_keys = np.array(sorted(want_group))
        want_join = oracle.join_gender(p1, w, self.net.person_ids, self.net.genders)
        want_top = oracle.top_weights(w, 100)
        all_keys = _pair_keys(p1, p2)
        order = np.argsort(all_keys)
        edge_keys = all_keys[order]
        mask = w > self.threshold
        want_distinct = _digest(np.unique(_pair_keys(p1[mask], np.trunc(w[mask]))))
        want_selective = oracle.selective(p1, w, self.bound)
        want_fof = oracle.friends_of_friends(p1, p2, self.person)

        def top_ok(top) -> bool:
            keys = _pair_keys([r[0] for r in top], [r[1] for r in top])
            at = np.searchsorted(edge_keys, keys).clip(0, len(edge_keys) - 1)
            weights = [r[2] for r in top]
            return (
                weights == want_top
                and np.array_equal(edge_keys[at], keys)
                and np.array_equal(w[order[at]], weights)
            )

        def group_ok(g) -> bool:
            return (
                len(g) == len(group_keys)
                and np.array_equal(g[:, 0].astype(np.int64), group_keys)
                and np.array_equal(g[:, 1], [want_group[k][0] for k in group_keys])
                and np.allclose(g[:, 2], [want_group[k][1] for k in group_keys], rtol=1e-9)
            )

        def join_ok(got) -> bool:
            return set(got) == set(want_join) and all(
                got[k][0] == want_join[k][0] and oracle.close(got[k][1], want_join[k][1])
                for k in want_join
            )

        def selective_ok(got) -> bool:
            return got[0] == want_selective[0] and oracle.close(got[1] or 0.0, want_selective[1])

        tests = {
            "group_by": group_ok,
            "join_group": join_ok,
            "top_k": top_ok,
            "distinct": lambda got: got == want_distinct,
            "selective": selective_ok,
            "fof": lambda got: got == want_fof,
        }
        wrong = {kind: sum(not test(a[kind]) for a in self.answers) for kind, test in tests.items()}
        checks = {kind: count == 0 for kind, count in wrong.items()}
        return checks, len(self.answers) * len(SCAN_QUERIES), sum(wrong.values())

    def summary(self) -> dict:
        return {"sf": self.sf, "knows_rows": self.net.num_directed_edges, "input_rows_per_pass": self.input_rows}


def _digest(keys) -> tuple:
    """Order-free fingerprint of (person1, person2) keys as returned:
    their count and a hash of them sorted, duplicates kept."""
    keys = np.sort(np.asarray(keys, dtype=np.int64))
    return len(keys), hashlib.sha256(keys.tobytes()).hexdigest()
