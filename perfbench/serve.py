"""The serve workload: an in-process compile server under closed-loop load.

A run is a sequence of *passes*. Each pass is one server lifetime: a
fresh :class:`~repro.server.app.ReproServer` on an ephemeral port with
empty result and memo caches, driven by two closed-loop client threads
(each sends its next request only after the previous reply) until the
pass's request stream is done or the run's time is up.

Every pass requests the same keys: each program of the ``all`` set once
cold, the i-th (by name) at the (endpoint, instance) combination
``COMBOS[i % 6]``, each followed by three repeats of keys already sent
(75% of requests), half of the repeats alpha-renamed so that only
canonicalization can make them hits. Cold keys take the combinations in
turn, so the expensive ``autotune`` misses are spread evenly through
every stream. The seed picks the program order within a combination,
which keys repeat and which repeats are renamed; it never changes the
keys, the counts or where the expensive requests fall, so every complete
pass does the same work. With a shuffled order, runs differed by how
often the two clients' misses happened to collide, and the latency
tail spread 23% over ten seeds.

The mix is an assumption, not recorded traffic; the repository has
none. The workload's design fixes two closed-loop clients and the three
compile endpoints over the ``mini`` and ``small`` instances but gives no
weights, so the six (endpoint, instance) combinations get equal shares.
The 75% repeat share makes hits the common case, which is what a result
cache is for, and keeps the median latency inside the hit mode. At 50%
repeats (the share of ``tools/server_smoke.py``, which sends each kernel
twice) the median falls between the hit and the miss mode, and with a
shuffled order it spread 39% over five seeds.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import threading
import time
from dataclasses import dataclass, replace

from workloads import LINE, CAPACITY, clear_memo, mod

ENDPOINTS = ("optimize", "locality", "autotune")
INSTANCES = ("mini", "small")
COMBOS = tuple((e, i) for e in ENDPOINTS for i in INSTANCES)
REPEATS_PER_COLD = 3
CLIENTS = 2
#: Passes whose request streams the printed stream digest covers.
DIGEST_PASSES = 4
SERVER_CLS = 4  # the server's default optimize cls


@dataclass(frozen=True)
class Request:
    endpoint: str
    program: str
    instance: str
    repeat: bool
    renamed: bool

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.endpoint, self.program, self.instance)


@dataclass
class Reply:
    request: Request
    pass_index: int
    latency_ms: float
    status: int
    body: bytes
    cache: str
    digest: str
    elapsed_ms: float
    start: float  # perf_counter when the request was sent


def alpha_renamed(program):
    """``program`` with every loop variable renamed to a fresh name."""
    visit = mod("repro.ir.visit")
    used = set(visit.loop_index_names(program))
    used |= {decl.name for decl in program.arrays}
    used |= {name for name, _ in program.params}
    mapping = {}
    for var in sorted(visit.loop_index_names(program)):
        mapping[var] = visit.fresh_name(var + "Q", used)
        used.add(mapping[var])
    body = tuple(visit.rename_loops(node, mapping) for node in program.body)
    return replace(program, body=body)


class ServerHarness:
    """An asyncio loop in a background thread hosting one server."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="perfbench-server", daemon=True
        )
        self.thread.start()
        self.server = None

    def _call(self, coro, timeout: float = 120.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def start(self) -> tuple[str, int]:
        app = mod("repro.server.app")
        config = mod("repro.server.config").ServerConfig(port=0, jobs=1)

        async def boot():
            server = app.ReproServer(config)
            await server.start()
            return server

        self.server = self._call(boot())
        return self.server.address

    def stop(self) -> None:
        if self.server is not None:
            self._call(self.server.shutdown())
            self.server = None

    def close(self) -> None:
        self.stop()
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()


class ServeWorkload:
    name = "serve"
    design_passes = 3
    cold = False

    def __init__(self, programs: tuple[str, ...] | None = None):
        self.entries = {
            entry.name: entry
            for entry in mod("repro.suite").get_set("all").entries()
            if programs is None or entry.name in programs
        }
        # (endpoint, digest, CPU ms, perf_counter at start) per compile job
        self.server_cpu: list[tuple[str, str, float, float]] = []

    @property
    def programs(self) -> list[str]:
        return sorted(self.entries)

    @property
    def pass_size(self) -> int:
        return len(self.entries) * (1 + REPEATS_PER_COLD)

    def setup(self) -> None:
        pretty = mod("repro.ir.pretty").pretty_program
        canon = mod("repro.ir.canon")
        self.bodies: dict[tuple, bytes] = {}
        self.digests: dict[tuple, str] = {}
        self.sources: dict[tuple, str] = {}
        for name, entry in self.entries.items():
            for instance in INSTANCES:
                program = entry.program(instance=instance)
                renamed = alpha_renamed(program)
                digest = canon.content_digest(program)
                if canon.content_digest(renamed) != digest:
                    raise RuntimeError(f"alpha-renamed {name} changes its digest")
                self.digests[(name, instance)] = digest
                self.sources[(name, instance)] = pretty(program)
                for flag, variant in ((False, program), (True, renamed)):
                    body = json.dumps({"source": pretty(variant)}).encode()
                    self.bodies[(name, instance, flag)] = body
        harness = ServerHarness()
        try:
            host, port = harness.start()
            client = mod("repro.server.client").ReproClient(host, port)
            client.healthz().raise_for_status()
        finally:
            harness.close()

    def stream(self, seed: int, pass_index: int) -> list[Request]:
        """The request stream of one pass (see the module docstring)."""
        rng = random.Random(f"{seed}:{pass_index}")
        groups: dict[tuple, list[str]] = {combo: [] for combo in COMBOS}
        for i, name in enumerate(self.programs):
            groups[COMBOS[i % len(COMBOS)]].append(name)
        for names in groups.values():
            rng.shuffle(names)
        rounds = max(len(names) for names in groups.values())
        seen: list[tuple] = []
        order: list[tuple[tuple, bool]] = []
        for k in range(rounds):
            for combo, names in groups.items():
                if k < len(names):
                    seen.append(combo + (names[k],))
                    order.append((seen[-1], False))
                    for _ in range(REPEATS_PER_COLD):
                        order.append((rng.choice(seen), True))
        repeat_at = [i for i, (_, repeat) in enumerate(order) if repeat]
        renamed = set(rng.sample(repeat_at, len(repeat_at) // 2))
        return [
            Request(endpoint, name, instance, repeat, i in renamed)
            for i, ((endpoint, instance, name), repeat) in enumerate(order)
        ]

    def stream_digest(self, seed: int) -> str:
        """A digest of the first DIGEST_PASSES request streams of ``seed``."""
        digest = hashlib.sha256()
        for p in range(DIGEST_PASSES):
            for r in self.stream(seed, p):
                digest.update(f"{r.endpoint}/{r.program}/{r.instance}/"
                              f"{int(r.repeat)}{int(r.renamed)};".encode())
        return digest.hexdigest()[:16]

    # -- one pass -----------------------------------------------------

    def run_pass(self, stream, pass_index, deadline, replies, speed, tracer=None):
        """Serve one pass; returns the server's /metrics payload. The
        calling thread samples ``speed`` while the clients run."""
        clear_memo()
        harness = ServerHarness()
        try:
            host, port = harness.start()
            client_cls = mod("repro.server.client").ReproClient
            lock = threading.Lock()
            cursor = iter(range(len(stream)))
            errors: list[BaseException] = []

            def take() -> int | None:
                with lock:
                    index = next(cursor, None)
                if index is None or (replies and time.perf_counter() >= deadline):
                    return None
                return index

            def drive() -> None:
                client = client_cls(host, port, timeout=60.0)
                try:
                    while (index := take()) is not None:
                        request = stream[index]
                        body = self.bodies[
                            (request.program, request.instance, request.renamed)
                        ]
                        path = f"/v1/{request.endpoint}"
                        start = time.perf_counter()
                        if tracer is None:
                            reply = client.request("POST", path, body)
                        else:
                            reply = tracer.run(
                                "op", client.request, ("POST", path, body),
                                op=f"{pass_index}:{index}",
                            )
                        latency = (time.perf_counter() - start) * 1000.0
                        replies.append(Reply(
                            request, pass_index, latency, reply.status,
                            reply.body, reply.headers.get("x-repro-cache", ""),
                            reply.headers.get("x-repro-digest", ""),
                            float(reply.headers.get("x-repro-elapsed-ms", "nan")),
                            start,
                        ))
                except Exception as exc:  # raised again after the join
                    errors.append(exc)

            threads = [
                threading.Thread(target=drive, name=f"perfbench-client-{i}")
                for i in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            while any(thread.is_alive() for thread in threads):
                speed.sample_if_due()
                time.sleep(0.01)
            for thread in threads:
                thread.join()
            if errors:
                raise errors[0]
            metrics = client_cls(host, port).metrics().payload
        finally:
            harness.close()
        return metrics

    def meter(self):
        """Wrap the server's compile job to record its CPU per request."""
        app = mod("repro.server.app")
        original = app.execute
        records = self.server_cpu

        def metered(endpoint, text, digest, params, fault=""):
            began, start = time.perf_counter(), time.thread_time()
            try:
                return original(endpoint, text, digest, params, fault)
            finally:
                cpu = (time.thread_time() - start) * 1000.0
                records.append((endpoint, digest, cpu, began))

        app.execute = metered
        return lambda: setattr(app, "execute", original)

    # -- checks -------------------------------------------------------

    def judge(self, replies: list[Reply]) -> list[str | None]:
        """A failure reason (or None) for every reply."""
        first: dict[tuple, bytes] = {}
        for reply in replies:
            if reply.status == 200:
                first.setdefault(reply.request.key, reply.body)
        miss_after = self._in_process_miss_after(
            {key for key in first if key[0] == "optimize"}
        )
        verdicts = []
        for reply in replies:
            key = reply.request.key
            expected = self.digests[(key[1], key[2])]
            if reply.status != 200:
                verdicts.append(f"HTTP {reply.status}")
            elif reply.body != first[key]:
                verdicts.append("body differs from the first reply for its key")
            elif reply.digest != expected:
                verdicts.append(f"digest {reply.digest} != {expected}")
            elif key[0] == "optimize" and json.loads(reply.body)["locality"][
                "miss_after"
            ] != miss_after[key]:
                verdicts.append("miss_after differs from the in-process result")
            else:
                verdicts.append(None)
        return verdicts

    def _in_process_miss_after(self, keys) -> dict[tuple, float]:
        parse = mod("repro.frontend.parser").parse_program
        compound = mod("repro.transforms.compound").compound
        model = mod("repro.model.loopcost").CostModel(cls=SERVER_CLS)
        predict = mod("repro.locality.analytic").predict_locality
        out = {}
        for key in keys:
            program = parse(self.sources[(key[1], key[2])])
            final = compound(program, model).program
            ratio = predict(final, line=LINE).miss_ratio_for_capacity(CAPACITY)
            out[key] = round(ratio, 6)
        return out

    def program_of_digest(self) -> dict[str, str]:
        return {digest: key[0] for key, digest in self.digests.items()}


def ledger_dir(root: str) -> str:
    """A fresh per-run ledger directory inside the benchmark's output."""
    path = os.path.join(root, "perfbench", "out", f"ledger-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path
