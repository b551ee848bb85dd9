"""Serving layer: sharded LRU, dedup, batching, warm workers, HTTP.

Covers the guarantees docs/serving.md promises:

* the sharded LRU evicts in LRU order per shard, routes keys
  deterministically, and its stats add up;
* concurrent identical requests coalesce onto exactly one underlying
  solve; distinct keys never coalesce; leader failures propagate;
* the micro-batcher forms batches bounded by size and window, and a
  full queue raises :class:`Backpressure` instead of buffering;
* served ``analyze`` responses are byte-identical to rendering
  :func:`repro.analyses.registry.run_entry` directly — including the
  retained-:class:`IncrementalSolver` repeat path;
* the HTTP server answers hits from the LRU, turns backpressure into
  503, serves the introspection endpoints, and shuts down cleanly.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.analyses import registry as reg
from repro.analyses.mpi_model import MpiModel
from repro.cfg import build_icfg
from repro.mpi import build_mpi_icfg
from repro.programs import figure1
from repro.programs.registry import BENCHMARKS
from repro.serving import (
    AnalysisServer,
    Backpressure,
    MicroBatcher,
    RequestCoalescer,
    ServeClient,
    ServeClientError,
    ServeError,
    ServeRequest,
    ShardedLRU,
    execute_task,
)
from repro.serving.server import _HttpError


class TestShardedLRU:
    def test_single_shard_evicts_in_lru_order(self):
        lru = ShardedLRU(capacity=3, shards=1)
        for k in ("a", "b", "c"):
            lru.put(k, k.upper())
        assert lru.get("a") == "A"  # promote "a"; "b" is now oldest
        lru.put("d", "D")
        assert lru.get("b") is None
        assert lru.get("a") == "A" and lru.get("d") == "D"
        assert lru.stats()["evictions"] == 1

    def test_capacity_bounds_total_entries(self):
        lru = ShardedLRU(capacity=16, shards=4)
        for i in range(200):
            lru.put(("key", i), i)
        # Each shard holds at most ceil(16/4) = 4 entries.
        assert len(lru) <= 16
        per = lru.stats()["per_shard"]
        assert all(s["entries"] <= 4 for s in per)

    def test_shard_routing_is_deterministic_and_spread(self):
        lru = ShardedLRU(capacity=1024, shards=8)
        keys = [("serve", "analyze", f"bench:{i}") for i in range(256)]
        first = [lru.shard_index(k) for k in keys]
        assert first == [lru.shard_index(k) for k in keys]
        # CRC-32 routing should touch most shards for 256 keys.
        assert len(set(first)) >= 6

    def test_stats_accounting(self):
        lru = ShardedLRU(capacity=8, shards=2)
        lru.put("x", 1)
        assert lru.get("x") == 1
        assert lru.get("y") is None
        assert "x" in lru and "y" not in lru  # stats-neutral probes
        stats = lru.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert sum(s["hits"] for s in stats["per_shard"]) == 1
        lru.clear()
        assert len(lru) == 0

    def test_shards_clamped_to_capacity(self):
        lru = ShardedLRU(capacity=2, shards=64)
        assert lru.num_shards == 2
        with pytest.raises(ValueError):
            ShardedLRU(capacity=0)
        with pytest.raises(ValueError):
            ShardedLRU(shards=0)

    def test_thread_safety_under_contention(self):
        lru = ShardedLRU(capacity=32, shards=4)
        errors = []
        barrier = threading.Barrier(6)

        def worker(seed: int):
            try:
                barrier.wait()
                for i in range(300):
                    k = ("k", (seed * 7 + i) % 48)
                    if lru.get(k) is None:
                        lru.put(k, i)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(lru) <= 32
        stats = lru.stats()
        assert stats["hits"] + stats["misses"] == 6 * 300


class TestServeRequest:
    def test_seed_normalisation_and_roundtrip(self):
        req = ServeRequest.from_dict(
            {"bench": "Sw-3", "independents": "x", "dependents": ["f"]}
        )
        assert req.independents == ("x",) and req.dependents == ("f",)
        again = ServeRequest.from_dict(req.to_dict())
        assert again == req and again.key() == req.key()

    def test_same_source_text_shares_identity(self):
        a = ServeRequest(source=figure1.SOURCE_LITERAL)
        b = ServeRequest(source=str(figure1.SOURCE_LITERAL))
        assert a.ident() == b.ident() and a.ident().startswith("src:")
        assert a.key() == b.key()
        assert ServeRequest(bench="Sw-3").ident() == "bench:Sw-3"

    @pytest.mark.parametrize(
        "raw",
        [
            [],  # not an object
            {"bench": "Sw-3", "bogus": 1},  # unknown field
            {"bench": "Sw-3", "source": "p"},  # both program forms
            {},  # neither program form
            {"bench": "Sw-3", "kind": "nope"},
            {"bench": "Sw-3", "model": "nope"},
            {"bench": "Sw-3", "strategy": "nope"},
            {"bench": "Sw-3", "backend": "bitset"},  # no such field
            {"bench": "Sw-3", "kind": "explain"},  # explain without fact
            {"bench": "Sw-3", "clone_level": -1},
            {"bench": "Sw-3", "node": "five"},
            {"bench": "Sw-3", "independents": [1, 2]},
            {"bench": "Sw-3", "strategy": "worklist"},  # retired strategy
        ],
    )
    def test_rejects_bad_requests(self, raw):
        with pytest.raises(ServeError) as exc:
            ServeRequest.from_dict(raw)
        assert exc.value.status == 400
        if raw == {"bench": "Sw-3", "backend": "bitset"}:
            assert str(exc.value) == "unknown request field(s): backend"
        if raw == {"bench": "Sw-3", "strategy": "worklist"}:
            assert str(exc.value) == (
                "unknown strategy 'worklist'; expected one of roundrobin, priority"
            )

    def test_key_covers_response_shaping_fields(self):
        base = ServeRequest(bench="Sw-3")
        assert base.key() != ServeRequest(bench="Sw-3", analysis="vary").key()
        assert base.key() != ServeRequest(bench="Sw-3", model="ignore").key()
        assert base.key() != ServeRequest(bench="Sw-3", query="f@exit").key()


class TestRequestCoalescer:
    def test_concurrent_identical_requests_share_one_solve(self):
        async def run():
            coalescer = RequestCoalescer()
            calls = 0
            gate = asyncio.Event()

            async def compute():
                nonlocal calls
                calls += 1
                await gate.wait()
                return {"answer": 42}

            tasks = [
                asyncio.create_task(coalescer.run(("k",), compute))
                for _ in range(8)
            ]
            await asyncio.sleep(0)  # let every task reach the coalescer
            gate.set()
            results = await asyncio.gather(*tasks)
            return calls, results, coalescer.stats()

        calls, results, stats = asyncio.run(run())
        assert calls == 1  # exactly one underlying solve
        values = [r for r, _ in results]
        assert all(v is values[0] for v in values)
        assert [c for _, c in results].count(False) == 1
        assert stats["leaders"] == 1 and stats["followers"] == 7
        assert stats["dedup_ratio"] == pytest.approx(7 / 8)
        assert stats["in_flight"] == 0

    def test_distinct_keys_do_not_coalesce(self):
        async def run():
            coalescer = RequestCoalescer()
            calls = []

            async def compute(key):
                calls.append(key)
                await asyncio.sleep(0)
                return key

            await asyncio.gather(
                coalescer.run(("a",), lambda: compute("a")),
                coalescer.run(("b",), lambda: compute("b")),
            )
            return calls, coalescer.stats()

        calls, stats = asyncio.run(run())
        assert sorted(calls) == ["a", "b"]
        assert stats["followers"] == 0 and stats["leaders"] == 2

    def test_leader_failure_propagates_to_followers(self):
        async def run():
            coalescer = RequestCoalescer()
            gate = asyncio.Event()

            async def compute():
                await gate.wait()
                raise RuntimeError("boom")

            t1 = asyncio.create_task(coalescer.run(("k",), compute))
            t2 = asyncio.create_task(coalescer.run(("k",), compute))
            await asyncio.sleep(0)
            gate.set()
            results = await asyncio.gather(t1, t2, return_exceptions=True)
            return results, coalescer.in_flight(("k",))

        results, still_inflight = asyncio.run(run())
        assert all(isinstance(r, RuntimeError) for r in results)
        assert not still_inflight

    def test_sequential_requests_do_not_coalesce(self):
        async def run():
            coalescer = RequestCoalescer()

            async def compute():
                return "v"

            await coalescer.run(("k",), compute)
            _, coalesced = await coalescer.run(("k",), compute)
            return coalesced, coalescer.stats()

        coalesced, stats = asyncio.run(run())
        assert coalesced is False and stats["leaders"] == 2


class TestMicroBatcher:
    def test_burst_is_batched(self):
        async def run():
            batches = []

            async def executor(tasks):
                batches.append(len(tasks))
                return [{"n": t["n"]} for t in tasks]

            batcher = MicroBatcher(
                executor, queue_limit=64, batch_size=4, batch_window_ms=50.0
            )
            batcher.start()
            results = await asyncio.gather(
                *[batcher.submit({"n": i}) for i in range(8)]
            )
            await batcher.stop()
            return batches, results, batcher.stats()

        batches, results, stats = asyncio.run(run())
        assert sum(batches) == 8
        assert max(batches) <= 4
        assert [r["n"] for r in results] == list(range(8))
        assert stats["submitted"] == 8 and stats["rejected"] == 0
        assert stats["batched_tasks"] == 8
        assert stats["max_batch"] == max(batches)

    def test_full_queue_raises_backpressure(self):
        async def run():
            release = asyncio.Event()

            async def executor(tasks):
                await release.wait()
                return [{} for _ in tasks]

            batcher = MicroBatcher(
                executor,
                queue_limit=2,
                batch_size=1,
                batch_window_ms=0.0,
                max_inflight=1,
            )
            batcher.start()
            # First submit occupies the only batch slot (stuck in the
            # executor); the next two fill the bounded queue.
            first = asyncio.create_task(batcher.submit({"n": 0}))
            await asyncio.sleep(0.05)
            pending = [
                asyncio.create_task(batcher.submit({"n": i})) for i in (1, 2)
            ]
            await asyncio.sleep(0.05)
            assert batcher.depth() == 2
            with pytest.raises(Backpressure):
                await batcher.submit({"n": 99})
            assert batcher.stats()["rejected"] == 1
            release.set()
            await asyncio.gather(first, *pending)
            await batcher.stop()

        asyncio.run(run())

    def test_executor_failure_fails_the_batch(self):
        async def run():
            async def executor(tasks):
                raise OSError("worker died")

            batcher = MicroBatcher(executor, batch_size=2, batch_window_ms=1.0)
            batcher.start()
            with pytest.raises(OSError):
                await batcher.submit({})
            await batcher.stop()

        asyncio.run(run())

    def test_knob_validation(self):
        async def executor(tasks):  # pragma: no cover
            return []

        with pytest.raises(ValueError):
            MicroBatcher(executor, queue_limit=0)
        with pytest.raises(ValueError):
            MicroBatcher(executor, batch_size=0)


def _direct_analyze_text(bench: str, analysis: str, **over) -> str:
    """What ``repro analyze`` renders for this request, computed with
    no serving machinery at all."""
    spec = BENCHMARKS[bench]
    entry = reg.get(analysis)
    req = reg.AnalyzeRequest(
        independents=tuple(over.get("independents", spec.independents)),
        dependents=tuple(over.get("dependents", spec.dependents)),
        mpi_model=MpiModel(over.get("model", "comm-edges")),
        strategy=over.get("strategy", "roundrobin"),
        query=over.get("query"),
    )
    if entry.supports_model and req.mpi_model.uses_comm_edges:
        icfg, _ = build_mpi_icfg(
            spec.program(), spec.root, clone_level=spec.clone_level
        )
    else:
        icfg = build_icfg(spec.program(), spec.root, clone_level=spec.clone_level)
    return entry.render_result(icfg, req, reg.run_entry(entry, icfg, req))


class TestExecuteTask:
    """The worker layer answers byte-identically to direct execution."""

    @pytest.mark.parametrize("analysis", ["vary", "useful", "activity"])
    def test_analyze_matches_run_entry(self, analysis):
        result = execute_task(
            {"kind": "analyze", "analysis": analysis, "bench": "Sw-3"}
        )
        assert result["ok"], result
        assert result["text"] == _direct_analyze_text("Sw-3", analysis)
        assert result["content_type"] == "text/plain"

    def test_retained_solver_repeat_is_byte_identical(self):
        task = {"kind": "analyze", "analysis": "vary", "bench": "Sw-3"}
        first = execute_task(task)
        second = execute_task(task)  # served by the retained solver
        # The response contract is byte-identical; only the telemetry
        # timing breakdown (wall-clock) may differ between runs.
        for key in ("ok", "text", "content_type"):
            assert first[key] == second[key]
        assert second["timings"]["worker_cache"] == "hit"
        assert first["text"] == _direct_analyze_text("Sw-3", "vary")

    def test_plain_graph_models_match_run_entry(self):
        result = execute_task(
            {
                "kind": "analyze",
                "analysis": "liveness",
                "bench": "Sw-3",
                "model": "ignore",
            }
        )
        assert result["ok"], result
        assert result["text"] == _direct_analyze_text(
            "Sw-3", "liveness", model="ignore"
        )

    def test_query_path_matches_run_entry(self):
        spec = BENCHMARKS["Sw-3"]
        query = f"exit:{spec.independents[0]}"
        result = execute_task(
            {
                "kind": "analyze",
                "analysis": "vary",
                "bench": "Sw-3",
                "query": query,
            }
        )
        assert result["ok"], result
        assert result["text"] == _direct_analyze_text(
            "Sw-3", "vary", query=query
        )

    def test_inline_source_program(self):
        result = execute_task(
            {
                "kind": "analyze",
                "analysis": "vary",
                "source": figure1.SOURCE_LITERAL,
                "independents": ["x"],
                "dependents": ["f"],
            }
        )
        assert result["ok"], result
        assert "vary" in result["text"]

    def test_table1_and_report_kinds(self):
        row = execute_task({"kind": "table1", "bench": "Sw-3"})
        assert row["ok"] and "Sw-3" in row["text"]
        html = execute_task({"kind": "report", "bench": "Sw-3"})
        assert html["ok"] and html["content_type"] == "text/html"
        assert html["text"].lstrip().startswith("<!DOCTYPE html>")

    def test_explain_kind_renders_chains(self):
        fact = BENCHMARKS["Sw-3"].independents[0]
        result = execute_task(
            {"kind": "explain", "bench": "Sw-3", "fact": fact}
        )
        assert result["ok"], result
        assert fact in result["text"]

    @pytest.mark.parametrize(
        "task,needle",
        [
            ({"kind": "analyze", "bench": "no-such-bench"}, "unknown benchmark"),
            ({"kind": "analyze", "analysis": "nope", "bench": "Sw-3"}, "nope"),
            (
                {"kind": "analyze", "source": "program bad;\nproc main() {"},
                "bad SPL source",
            ),
            (
                {
                    "kind": "analyze",
                    "source": figure1.SOURCE_LITERAL,
                    "root": "nope",
                },
                "unknown root",
            ),
            (
                {"kind": "table1", "source": figure1.SOURCE_LITERAL},
                "independent",
            ),
        ],
    )
    def test_errors_become_status_dicts(self, task, needle):
        result = execute_task(task)
        assert not result["ok"]
        assert result["status"] == 400
        assert needle in result["error"]


@pytest.fixture(scope="module")
def live_server():
    """One inline-mode server on an OS-assigned port, shared by the
    end-to-end tests; shut down (cleanly) at module teardown."""
    started = threading.Event()
    box = {}

    def run():
        async def main():
            server = AnalysisServer(
                port=0, workers=0, warm=["Sw-3"], lru_capacity=64, lru_shards=4
            )
            await server.start()
            box["server"] = server
            box["port"] = server.port
            started.set()
            await server.serve_until_shutdown()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(timeout=120), "server failed to start"
    yield box
    with ServeClient(port=box["port"]) as client:
        try:
            client.shutdown()
        except ServeClientError:  # pragma: no cover - already stopping
            pass
    thread.join(timeout=60)
    assert not thread.is_alive(), "server did not shut down cleanly"


class TestServerEndToEnd:
    def test_health_and_introspection(self, live_server):
        with ServeClient(port=live_server["port"]) as client:
            assert client.health()["ok"] is True
            names = {a["name"] for a in client.analyses()}
            assert {"vary", "useful", "activity"} <= names
            benches = {b["name"] for b in client.benchmarks()}
            assert "Sw-3" in benches

    def test_analyze_miss_then_hit_byte_identical(self, live_server):
        with ServeClient(port=live_server["port"]) as client:
            first = client.post("analyze", analysis="useful", bench="Sw-3")
            second = client.post("analyze", analysis="useful", bench="Sw-3")
        assert second.cache == "hit"
        assert first.text == second.text
        assert first.text == _direct_analyze_text("Sw-3", "useful")

    def test_concurrent_identical_requests_dedup(self, live_server):
        port = live_server["port"]
        server = live_server["server"]
        before = server.coalescer.stats()
        body = {
            "analysis": "taint",
            "bench": "Sw-3",
            # A fresh strategy knob keeps this key cold in the LRU.
            "strategy": "priority",
        }
        results = []
        barrier = threading.Barrier(6)

        def fire():
            barrier.wait()
            with ServeClient(port=port) as client:
                results.append(client.post("analyze", **body))

        threads = [threading.Thread(target=fire) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        texts = {r.text for r in results}
        assert len(texts) == 1  # all six answers byte-identical
        after = server.coalescer.stats()
        # Exactly one underlying solve among the arrivals that raced
        # (the rest coalesced or hit the LRU just after it filled).
        assert after["leaders"] - before["leaders"] == 1

    def test_bad_requests_are_4xx(self, live_server):
        with ServeClient(port=live_server["port"]) as client:
            with pytest.raises(ServeClientError) as err:
                client.analyze(analysis="vary")  # no program
            assert err.value.status == 400
            with pytest.raises(ServeClientError) as err:
                client.analyze(analysis="vary", bench="no-such")
            assert err.value.status == 400
            with pytest.raises(ServeClientError) as err:
                client._checked("POST", "/v1/nope", {})
            assert err.value.status == 404
            with pytest.raises(ServeClientError) as err:
                client._checked("GET", "/v1/nope")
            assert err.value.status == 404

    def test_stats_endpoint_shape(self, live_server):
        with ServeClient(port=live_server["port"]) as client:
            client.analyze(analysis="vary", bench="Sw-3")
            stats = client.stats()
        assert stats["requests"] >= 1
        assert set(stats["lru"]) >= {"hits", "misses", "hit_rate", "per_shard"}
        assert set(stats["dedup"]) >= {"leaders", "followers", "dedup_ratio"}
        assert set(stats["batching"]) >= {"submitted", "rejected", "max_batch"}
        assert stats["pool"]["mode"] == "inline"


class TestServerBackpressure:
    def test_full_queue_is_503(self):
        async def run():
            server = AnalysisServer(queue_limit=1, batch_size=1)
            release = asyncio.Event()

            async def stuck_run_batch(tasks):
                await release.wait()
                return [
                    {"ok": True, "text": "x", "content_type": "text/plain"}
                    for _ in tasks
                ]

            server.batcher = MicroBatcher(
                stuck_run_batch, queue_limit=1, batch_size=1, max_inflight=1
            )
            server.batcher.start()
            # First request occupies the only batch slot; the second
            # fills the length-1 queue; the third must be shed.
            first = asyncio.create_task(
                server.handle("analyze", {"bench": "Sw-3", "query": "a"})
            )
            await asyncio.sleep(0.05)
            second = asyncio.create_task(
                server.handle("analyze", {"bench": "Sw-3", "query": "b"})
            )
            await asyncio.sleep(0.05)
            assert server.batcher.depth() == 1
            with pytest.raises(_HttpError) as err:
                await server.handle("analyze", {"bench": "Sw-3", "query": "z"})
            assert err.value.status == 503
            release.set()
            await asyncio.gather(first, second)
            await server.batcher.stop()
            return server.stats()

        stats = asyncio.run(run())
        assert stats["rejected"] >= 1
        assert stats["batching"]["rejected"] >= 1
