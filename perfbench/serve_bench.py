"""``serve-read`` and ``serve-churn``: the HTTP serving tier under load.

A server process runs the stock serving stack (``repro serve``, through
``server.py``) over a fresh cache directory.  Ten tenants are registered:
every Table 1 ontology twice, once on the ``memory`` and once on the
``sqlite`` backend, each twin holding the same fixed
``scaled_registry_instance`` ABox, so twins share one compiled artifact
set.  The load comes from this process: a closed loop over
``CONNECTIONS`` keep-alive connections (``ServingClient(retries=0)``);
each connection sends its next request only after the previous reply.

Each run starts ``SERVERS`` fresh servers in turn.  Every one is timed
through set-up and through its cold phase; the last one then carries
the steady stream for the measured seconds:

* ``serve-read`` — cold phase: the first ``/answer`` of each of the 25
  Table 1 queries on both twins (compiles through the serving tier under
  its default ``strategy="auto"``, with coalescing and checkpoints).
  Stream: ``/answer`` requests, mostly one bound shape per ontology with
  a constant passed through ``bindings`` (Zipf-skewed over the constants
  of the ontology's ABox, more than three times
  ``PreparedQuery.MAX_CACHED_ANSWERS``, so answer-cache hits and plan
  executes both occur), the rest unbound repeats of the 25 queries.
* ``serve-churn`` — cold phase: every tenant subscribes to its five
  queries.  Stream: per step, one seeded insert/delete batch sent to
  both twins, a poll of that ontology's cursors on both twins, and every
  ``ANSWER_EVERY``-th step an ``/answer`` that must re-execute.

The gated cost of the stream is the server's CPU time per operation
(``op_cpu_ms``).  It and the cold phase are reported at reference speed
(``speed.py``): the stream is cut into ``WINDOWS`` equal slices, and
each slice's server CPU time, like each cold phase, is scaled by the
host speed that probes taken at its two ends read, while the load is
held back.  Latency and
throughput are reported beside it, as measured.

Every non-2xx reply, timeout or connection error counts as a failed
operation and as a latency sample of ``REQUEST_TIMEOUT_S``; it never
aborts the run.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    ROOT,
    SERVING_LAYER_COUNTS,
    SOURCE,
    BenchmarkError,
    Metric,
    Outcome,
    has_tail,
    median,
    process_cpu_seconds,
    process_peak_rss_mb,
    quantile,
    ratio,
    tail_quantile,
)
from compile_bench import compile_layer_metrics
from speed import Speed

ONTOLOGIES = ("V", "S", "U", "A", "P5")
BACKENDS = ("memory", "sqlite")
#: One connection per usable CPU of the reference machine (``nproc`` 2).
CONNECTIONS = 2
#: Fresh servers per run; each gives one set-up and one cold-phase sample.
SERVERS = 3
#: The stream is cut into this many equal slices; the host's speed is
#: read at both ends of each.
WINDOWS = 20
#: Probes of the host's speed before and after each set-up, and between
#: the ontologies of each cold phase.
PHASE_PROBES = 4
#: The ABoxes: ``scaled_registry_instance(name, ABOX_SCALE, ABOX_SEED)``.
#: The data is fixed like the ontologies; the run seed draws the traffic.
#: At scale 13 every ABox holds more than ``DOMAIN_FACTOR`` times
#: ``PreparedQuery.MAX_CACHED_ANSWERS`` constants (``make_inputs`` checks
#: it), and a 2+2 fact batch is under 1% of the smallest ABox.
ABOX_SCALE = 13
ABOX_SEED = 0
#: The Table 1 query whose last non-answer variable becomes the bound
#: constant of each ontology's bound shape.
BOUND_QUERY = "q2"
BOUND_CONSTANT = "bound"
#: Share of serve-read requests that use the bound shape: most of them,
#: four in five; the rest are unbound repeats of the 25 queries.
BOUND_SHARE = 0.8
#: Binding values are drawn from every constant of the ontology's ABox,
#: Zipf-ranked with this exponent: YCSB's default request skew (0.99).
ZIPF_EXPONENT = 0.99
#: The binding domain must exceed the answer cache this many times over,
#: so that cold values keep evicting and plan executes keep happening.
DOMAIN_FACTOR = 3
#: Steps of serve-churn: facts inserted and deleted per batch.  Churn
#: tenants start without a fixed tenth of their ABox, the reserve; each
#: batch moves facts from the reserve in and from the data out, so the
#: data stays a same-sized sample of the ABox for the whole run.  The run
#: seed draws which facts move.  A batch stays under 1% of the smallest
#: tenant's data (P5: 4 of 660 facts), where delta maintenance is the
#: right mode (docs/BENCHMARKS.md, maintenance crossover).
BATCH_INSERTS = 2
BATCH_DELETES = 2
RESERVE_SHARE = 0.1
#: Every this many steps a connection also asks for an answer that must
#: re-execute: an occasional read, 2 of every 50 churn requests.
ANSWER_EVERY = 4
REQUEST_TIMEOUT_S = 10.0
#: Requests due this long after a pass started, plus ``--seconds``, fail
#: without being sent, so an unresponsive server still ends the run in
#: bounded time.  A pass needs about 20 s besides its stream.
PASS_MARGIN_S = 60.0
SERVER_START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


def _tenant(ontology: str, backend: str) -> str:
    return f"{ontology}-{backend}"


# -- inputs --------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything the seed decides, generated before any server starts."""

    facts: dict[str, list[list]]
    queries: dict[str, list[str]]
    bound_shapes: dict[str, str]
    #: Per ontology, the binding values in Zipf rank order: first those
    #: for which the bound shape has answers, then the ABox's other
    #: constants.  The seed orders the values within each group.
    domain: dict[str, list[str]]
    #: Per ontology, how many leading values of ``domain`` have answers.
    answered: dict[str, int]
    reserve: dict[str, list[list]]


def make_inputs(seed: int) -> Inputs:
    from repro import OBDASystem
    from repro.api import PreparedQuery
    from repro.fuzzing import scaled_registry_instance
    from repro.logic.terms import Constant, Variable
    from repro.queries.conjunctive_query import ConjunctiveQuery
    from repro.workloads import get_workload

    rng = random.Random(seed)
    facts, queries, shapes, domain, answered, reserve = {}, {}, {}, {}, {}, {}
    for name in ONTOLOGIES:
        instance = scaled_registry_instance(name, scale=ABOX_SCALE, seed=ABOX_SEED)
        facts[name] = sorted(
            [atom.predicate.name, [term.value for term in atom.terms]]
            for atom in instance.facts
        )
        reserve[name] = random.Random(ABOX_SEED).sample(
            facts[name], int(len(facts[name]) * RESERVE_SHARE))
        workload = get_workload(name)
        queries[name] = [str(workload.query(query)) for query in workload.query_names]
        query = workload.query(BOUND_QUERY)
        variables = [
            term for atom in query.body for term in atom.terms if isinstance(term, Variable)
        ]
        bound = [term for term in variables if term != query.answer_terms[0]][-1]
        substitution = {bound: Constant(BOUND_CONSTANT)}
        answer_terms = tuple(term for term in query.answer_terms if term != bound)
        shapes[name] = str(
            ConjunctiveQuery(tuple(atom.apply(substitution) for atom in query.body), answer_terms)
        )
        # The bound shape has answers for exactly the values the bound
        # variable takes in the answers of the query that also returns it.
        system = OBDASystem(workload.theory, database=instance)
        widened = ConjunctiveQuery(query.body, answer_terms + (bound,))
        with_answers = {row[-1].value for row in system.prepare(widened).execute().tuples}
        constants = {term.value for atom in instance.facts for term in atom.terms}
        # Values that occur in the theory cannot be bound.
        constants -= {constant.value for constant in system.theory_constants}
        with_answers &= constants
        hot = sorted(with_answers)
        cold = sorted(constants - with_answers)
        if len(hot) + len(cold) < DOMAIN_FACTOR * PreparedQuery.MAX_CACHED_ANSWERS:
            raise BenchmarkError(f"the {name} ABox has too few constants for the binding domain")
        rng.shuffle(hot)
        rng.shuffle(cold)
        domain[name] = hot + cold
        answered[name] = len(hot)
    return Inputs(facts, queries, shapes, domain, answered, reserve)


def registered_facts(inputs: Inputs, workload: str, name: str) -> list[list]:
    """The ABox a tenant is registered with (churn keeps the reserve back)."""
    if workload == "serve-read":
        return inputs.facts[name]
    held = {json.dumps(fact) for fact in inputs.reserve[name]}
    return [fact for fact in inputs.facts[name] if json.dumps(fact) not in held]


def zipf_weights(size: int) -> list[float]:
    return [1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, size + 1)]


# -- the server process --------------------------------------------------------


class Server:
    """One ``server.py`` process over its own cache directory."""

    def __init__(self, directory: Path, trace: bool) -> None:
        self.trace_file = directory / "trace.json" if trace else None
        command = [sys.executable, "-u", str(Path(__file__).with_name("server.py")),
                   "--cache", str(directory / "cache")]
        if self.trace_file is not None:
            command += ["--trace-out", str(self.trace_file)]
        environment = dict(os.environ, PYTHONPATH=str(SOURCE))
        # A session of its own, so that a server which will not stop can be
        # killed together with any worker processes it forked.
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=environment, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self.killed = False
        self.cache = directory / "cache"
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            if line.startswith("# serving on http://"):
                return int(line.split()[3].rsplit(":", 1)[1])
        self.stop()
        raise BenchmarkError("the server process did not start")

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def cpu_seconds(self) -> float:
        return process_cpu_seconds(self.process.pid)

    def stop(self) -> dict | None:
        """Stop the server (SIGINT, as an operator would); its trace if any.

        A server still running after ``STOP_TIMEOUT_S`` is killed with its
        whole process group, and :attr:`killed` records it.
        """
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.killed = True
                print("# server did not stop on SIGINT; killed", flush=True)
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self.process.stdout.close()
        if self.trace_file is not None and self.trace_file.exists():
            return json.loads(self.trace_file.read_text())
        return None


# -- the client ----------------------------------------------------------------


class Load:
    """Closed-loop client bookkeeping: samples, failures, response fields."""

    def __init__(self, port: int, budget_ends: float) -> None:
        from repro.serving import ServingClient

        self.budget_ends = budget_ends
        self.clients = [
            ServingClient("127.0.0.1", port, retries=0) for _ in range(CONNECTIONS)
        ]
        self.attempted = 0
        self.failed = 0
        self.latencies: dict[str, list[float]] = {}
        self.server_ms: dict[str, list[float]] = {}
        #: Cleared by :meth:`quiet`: no request is sent while it is clear.
        self.sending = asyncio.Event()
        self.sending.set()
        self.in_flight = 0

    @contextlib.asynccontextmanager
    async def quiet(self):
        """Hold new requests back and wait for those in flight, so that the
        server is idle inside the block."""
        self.sending.clear()
        try:
            while self.in_flight:
                await asyncio.sleep(0.001)
            yield
        finally:
            self.sending.set()

    async def call(self, connection: int, kind: str, method: str, path: str,
                   payload: dict | None = None) -> dict | None:
        """One request; its payload, or ``None`` when it failed."""
        await self.sending.wait()
        self.attempted += 1
        started = time.perf_counter()
        if started > self.budget_ends:
            response = None
        else:
            self.in_flight += 1
            try:
                response = await self._send(connection, method, path, payload)
            finally:
                self.in_flight -= 1
        elapsed_ms = (time.perf_counter() - started) * 1e3
        samples = self.latencies.setdefault(kind, [])
        if response is None or not response.ok:
            self.failed += 1
            samples.append(REQUEST_TIMEOUT_S * 1e3)
            status = "no reply" if response is None else response.status
            print(f"# failed {kind} {path}: {status}", flush=True)
            return None
        samples.append(elapsed_ms)
        if "elapsed_ms" in response.payload:
            self.server_ms.setdefault(kind, []).append(response.payload["elapsed_ms"])
        return response.payload

    async def _send(self, connection: int, method: str, path: str, payload: dict | None):
        client = self.clients[connection]
        try:
            return await asyncio.wait_for(
                client.request(method, path, payload), REQUEST_TIMEOUT_S
            )
        except (ConnectionError, OSError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            # A half-read reply would poison the connection: start afresh.
            await client.aclose()
            return None

    async def aclose(self) -> None:
        for client in self.clients:
            await client.aclose()


async def _register(load: Load, inputs: Inputs, workload: str) -> None:
    for name in ONTOLOGIES:
        facts = registered_facts(inputs, workload, name)
        for backend in BACKENDS:
            reply = await load.call(0, "register", "POST", "/register-theory", {
                "tenant": _tenant(name, backend), "workload": name,
                "backend": backend, "facts": facts,
            })
            if reply is None:
                raise BenchmarkError(f"registering {_tenant(name, backend)} failed")


async def _on_connections(jobs: list, worker) -> None:
    """Split *jobs* round-robin over the connections and run them."""
    await asyncio.gather(*(
        worker(connection, jobs[connection::CONNECTIONS])
        for connection in range(CONNECTIONS)
    ))


# -- serve-read ------------------------------------------------------------------


@dataclass
class ReadState:
    sources: dict[str, int] = field(default_factory=dict)
    cached: int = 0
    answers: int = 0
    #: Replies to bound requests, and those among them with answers.
    bound: int = 0
    bound_answered: int = 0
    transport_ms: list[float] = field(default_factory=list)


async def _answer_twins(load: Load, outcome: Outcome, state: ReadState | None,
                        connection: int, kind: str, name: str, query: str,
                        bindings: dict | None = None) -> list | None:
    """Ask both twins; their answers must be byte-identical."""
    bodies = []
    for backend in BACKENDS:
        payload = {"tenant": _tenant(name, backend), "query": query}
        if bindings:
            payload["bindings"] = bindings
        started = time.perf_counter()
        reply = await load.call(connection, kind, "POST", "/answer", payload)
        if reply is None:
            return None
        if state is not None:
            client_ms = (time.perf_counter() - started) * 1e3
            state.transport_ms.append(client_ms - reply["elapsed_ms"])
            state.sources[reply["source"]] = state.sources.get(reply["source"], 0) + 1
            state.cached += bool(reply["answer_cached"])
            state.answers += 1
            if bindings:
                state.bound += 1
                state.bound_answered += bool(reply["answers"])
        bodies.append(json.dumps(reply["answers"]))
    outcome.check("twins-identical", bodies[0] == bodies[1],
                  f"{name} twins differ on {query} {bindings}")
    return json.loads(bodies[0])


async def _cold_answers(load: Load, outcome: Outcome, inputs: Inputs, state: ReadState,
                        name: str) -> None:
    jobs = [(name, query) for query in inputs.queries[name]]

    async def worker(connection, mine):
        for name, query in mine:
            await _answer_twins(load, outcome, state, connection, "cold", name, query)

    await _on_connections(jobs, worker)


async def _read_stream(load: Load, outcome: Outcome, inputs: Inputs, seed: int,
                       seconds: float, state: ReadState) -> float:
    weights = {name: list(itertools.accumulate(zipf_weights(len(values))))
               for name, values in inputs.domain.items()}
    deadline = time.perf_counter() + seconds

    async def worker(connection, _):
        rng = random.Random(seed * 1000 + connection)
        while time.perf_counter() < deadline:
            name = rng.choice(ONTOLOGIES)
            if rng.random() < BOUND_SHARE:
                value = rng.choices(inputs.domain[name], cum_weights=weights[name])[0]
                await _answer_twins(load, outcome, state, connection, "read", name,
                                    inputs.bound_shapes[name], {BOUND_CONSTANT: value})
            else:
                await _answer_twins(load, outcome, state, connection, "read", name,
                                    rng.choice(inputs.queries[name]))

    started = time.perf_counter()
    await _on_connections([None] * CONNECTIONS, worker)
    return time.perf_counter() - started


def _reference_answers(inputs: Inputs, requests: list[tuple[str, str, dict | None]]) -> list:
    """Answers of an in-process ``OBDASystem`` over the same ABoxes."""
    from repro import OBDASystem
    from repro.database.instance import RelationalInstance
    from repro.queries.parser import parse_query
    from repro.serving.app import encode_answers
    from repro.workloads import get_workload

    systems = {}
    for name in ONTOLOGIES:
        database = RelationalInstance()
        for relation, values in inputs.facts[name]:
            database.add_tuple(relation, values)
        systems[name] = OBDASystem(get_workload(name).theory, database=database)
    answers = []
    for name, query, bindings in requests:
        prepared = systems[name].prepare(parse_query(query))
        answers.append(encode_answers(prepared.execute(bindings).tuples))
    return answers


# -- serve-churn -----------------------------------------------------------------


@dataclass
class ChurnState:
    #: (tenant, query) -> cursor, and each cursor's composed answer set.
    cursors: dict[tuple[str, str], str] = field(default_factory=dict)
    views: dict[tuple[str, str], set] = field(default_factory=dict)
    modes: dict[str, int] = field(default_factory=dict)
    polls: int = 0
    delta_rows: int = 0
    cached_after_write: int = 0
    transport_ms: list[float] = field(default_factory=list)
    #: Write-to-visibility: the batch sent to both twins, then every
    #: cursor of the ontology polled on both twins.
    steps: list[float] = field(default_factory=list)


def _rows(rows: list) -> set:
    return {json.dumps(row) for row in rows}


async def _subscribe(load: Load, outcome: Outcome, inputs: Inputs, state: ChurnState,
                     name: str) -> None:
    jobs = [(name, query) for query in inputs.queries[name]]

    async def worker(connection, mine):
        for name, query in mine:
            snapshots = []
            for backend in BACKENDS:
                tenant = _tenant(name, backend)
                reply = await load.call(connection, "subscribe", "POST",
                                        f"/tenants/{tenant}/subscribe", {"query": query})
                if reply is None:
                    return
                state.cursors[tenant, query] = reply["cursor"]
                state.views[tenant, reply["cursor"]] = _rows(reply["answers"])
                snapshots.append(json.dumps(reply["answers"]))
            outcome.check("twins-identical", snapshots[0] == snapshots[1],
                          f"{name} twins' snapshots differ on {query}")

    await _on_connections(jobs, worker)


async def _churn_stream(load: Load, outcome: Outcome, inputs: Inputs, seed: int,
                        seconds: float, state: ChurnState) -> float:
    current = {name: registered_facts(inputs, "serve-churn", name) for name in ONTOLOGIES}
    reserve = {name: list(inputs.reserve[name]) for name in ONTOLOGIES}
    locks = {name: asyncio.Lock() for name in ONTOLOGIES}
    deadline = time.perf_counter() + seconds

    def batch(rng: random.Random, name: str) -> tuple[list, list]:
        data, held = current[name], reserve[name]
        added = [held.pop(rng.randrange(len(held))) for _ in range(BATCH_INSERTS)]
        removed = [data.pop(rng.randrange(len(data))) for _ in range(BATCH_DELETES)]
        data.extend(added)
        held.extend(removed)
        return added, removed

    async def poll_twins(connection: int, name: str) -> None:
        for query in inputs.queries[name]:
            twins = [(_tenant(name, backend), state.cursors.get((_tenant(name, backend), query)))
                     for backend in BACKENDS]
            if any(cursor is None for _, cursor in twins):
                continue  # its subscription failed, and was counted then
            deltas = []
            for tenant, cursor in twins:
                started = time.perf_counter()
                reply = await load.call(connection, "poll", "GET",
                                        f"/tenants/{tenant}/changes?cursor={cursor}")
                if reply is None:
                    return
                state.transport_ms.append(
                    (time.perf_counter() - started) * 1e3 - reply["elapsed_ms"])
                state.polls += 1
                state.modes[reply["mode"]] = state.modes.get(reply["mode"], 0) + 1
                state.delta_rows += len(reply["added"]) + len(reply["removed"])
                view = state.views[tenant, cursor]
                view -= _rows(reply["removed"])
                view |= _rows(reply["added"])
                deltas.append(json.dumps([reply["added"], reply["removed"]]))
            outcome.check("twins-identical", deltas[0] == deltas[1],
                          f"{name} twins' deltas differ")

    # Ontologies take turns in a fixed order: every run spends the same
    # share of its steps on each ontology, and the heavy steps of one
    # connection meet the same steps of the other whatever the seed.
    async def worker(connection, _):
        rng = random.Random(seed * 1000 + connection)
        step = 0
        while time.perf_counter() < deadline:
            name = ONTOLOGIES[(step * CONNECTIONS + connection) % len(ONTOLOGIES)]
            async with locks[name]:
                added, removed = batch(rng, name)
                failed = load.failed
                started = time.perf_counter()
                for backend in BACKENDS:
                    await load.call(connection, "write", "POST", "/data", {
                        "tenant": _tenant(name, backend), "add": added, "remove": removed,
                    })
                await poll_twins(connection, name)
                # A step with a failed request misses any latency limit.
                state.steps.append(REQUEST_TIMEOUT_S * 1e3 if load.failed > failed
                                   else (time.perf_counter() - started) * 1e3)
                step += 1
                if step % ANSWER_EVERY == 0:
                    query = rng.choice(inputs.queries[name])
                    for backend in BACKENDS:
                        reply = await load.call(connection, "answer", "POST", "/answer", {
                            "tenant": _tenant(name, backend), "query": query})
                        if reply is not None:
                            state.cached_after_write += bool(reply["answer_cached"])

    started = time.perf_counter()
    await _on_connections([None] * CONNECTIONS, worker)
    return time.perf_counter() - started


async def _check_cursors(load: Load, outcome: Outcome, state: ChurnState) -> None:
    """Each cursor's composed deltas must equal a fresh answer."""
    for (tenant, query), cursor in sorted(state.cursors.items()):
        view = state.views[tenant, cursor]
        reply = await load.call(0, "check", "POST", "/answer", {"tenant": tenant, "query": query})
        outcome.check("cursor-equals-answer", reply is not None and _rows(reply["answers"]) == view,
                      f"{tenant} {cursor}: composed deltas differ from a fresh answer")


# -- one run -----------------------------------------------------------------------


async def _serve(workload: str, seed: int, seconds: float, trace: bool, work: Path,
                 inputs: Inputs, outcome: Outcome, speed: Speed) -> dict:
    setups, setup_factors, colds, colds_adjusted, traces = [], [], [], [], []
    budget_ends = time.perf_counter() + PASS_MARGIN_S + seconds
    measured: dict = {}
    for index in range(SERVERS):
        last = index == SERVERS - 1
        directory = work / f"server-{index}"
        directory.mkdir(parents=True)
        setup_probed = time.perf_counter()
        speed.probe(PHASE_PROBES)
        started = time.perf_counter()
        server = Server(directory, trace)
        load = Load(server.port, budget_ends)
        try:
            await _register(load, inputs, workload)
            setups.append(time.perf_counter() - started)
            probed = time.perf_counter()
            speed.probe(PHASE_PROBES)
            setup_factors.append(speed.factor(since=setup_probed))
            if workload == "serve-read":
                state = ReadState()
                cold = _cold_answers
            else:
                state = ChurnState()
                cold = _subscribe
            elapsed, adjusted = await _cold_phase(
                speed, probed, lambda name: cold(load, outcome, inputs, state, name))
            colds.append(elapsed)
            colds_adjusted.append(adjusted)
            if last and workload == "serve-read":
                measured = await _measure_read(load, outcome, inputs, seed, seconds, state,
                                               server, speed)
            elif last:
                measured = await _measure_churn(load, outcome, inputs, seed, seconds, state,
                                                server, speed)
            if last:
                measured["peak_rss_mb"] = server.peak_rss_mb()
                measured["store_bytes"] = (server.cache / "rewritings.jsonl").stat().st_size
        finally:
            await load.aclose()
            outcome.attempted += load.attempted
            outcome.failed += load.failed
            folded = server.stop()
            # Stopping is an operation too: a server killed because it
            # would not stop counts as a failed one.
            outcome.attempted += 1
            outcome.failed += server.killed
        if folded is not None:
            traces.append(folded)
        if last:
            measured["latencies"] = load.latencies
            measured["server_ms"] = load.server_ms
    measured["setups"] = setups
    measured["setup_factors"] = setup_factors
    measured["colds"] = colds
    measured["colds_adjusted"] = colds_adjusted
    measured["speed_probes_ms"] = speed.durations()
    measured["traces"] = traces
    return measured


async def _cold_phase(speed: Speed, probed: float, work) -> tuple[float, float]:
    """Run ``work(name)`` for each ontology in turn, with probes between.

    Returns the wall time in total, as measured and at reference speed:
    each ontology's time is scaled by the probes just before and after
    it, so that a change in the host's speed within the phase is
    followed.  *probed* is when the probes before the first were taken.
    """
    elapsed = adjusted = 0.0
    for name in ONTOLOGIES:
        started = time.perf_counter()
        await work(name)
        took = time.perf_counter() - started
        after = time.perf_counter()
        speed.probe(PHASE_PROBES)
        elapsed += took
        adjusted += took * speed.factor(since=probed)
        probed = after
    return elapsed, adjusted


async def _measure_read(load, outcome, inputs, seed, seconds, cold_state, server,
                        speed) -> dict:
    # The bound shapes' first compiles happen here, outside the stream.
    for name in ONTOLOGIES:
        await _answer_twins(load, outcome, None, 0, "warmup", name, inputs.bound_shapes[name],
                            {BOUND_CONSTANT: inputs.domain[name][0]})
    state = ReadState()
    elapsed, windows = await asyncio.gather(
        _read_stream(load, outcome, inputs, seed, seconds, state),
        _cpu_windows(server, load, speed, lambda: len(load.latencies.get("read", ())),
                     seconds),
    )
    # Fresh answers of every tenant, checked against an in-process system
    # once the server has stopped: the 25 queries, and each bound shape at
    # its three hottest values (which have answers) and its coldest one.
    requests = [(name, query, None) for name in ONTOLOGIES for query in inputs.queries[name]]
    requests += [(name, inputs.bound_shapes[name], {BOUND_CONSTANT: value})
                 for name in ONTOLOGIES
                 for value in inputs.domain[name][:3] + inputs.domain[name][-1:]]
    served = []
    for name, query, bindings in requests:
        answers = await _answer_twins(load, outcome, None, 0, "check", name, query, bindings)
        served.append(answers)
        if bindings and bindings[BOUND_CONSTANT] in inputs.domain[name][:3]:
            outcome.check("hot-values-answered", bool(answers),
                          f"{name} has no answers at {bindings}")
    return {"elapsed": elapsed, "windows": windows, "read": state,
            "cold": cold_state,
            "reference_requests": requests, "served": served}


async def _measure_churn(load, outcome, inputs, seed, seconds, state, server,
                         speed) -> dict:
    elapsed, windows = await asyncio.gather(
        _churn_stream(load, outcome, inputs, seed, seconds, state),
        _cpu_windows(server, load, speed, lambda: sum(len(load.latencies.get(kind, ()))
                                                      for kind in ("write", "poll", "answer")),
                     seconds),
    )
    await _check_cursors(load, outcome, state)
    return {"elapsed": elapsed, "windows": windows, "churn": state}


async def _cpu_windows(server: Server, load: Load, speed: Speed, operations,
                       seconds: float) -> list[tuple[float, int, float]]:
    """Each of ``WINDOWS`` equal slices of the stream: server CPU seconds,
    operations completed, and the host-speed factor its end probes read.

    *operations* counts the stream's operations so far.  Each slice ends
    with the load held back (:meth:`Load.quiet`): the probes then share
    the host with no request, and the slice holds whole requests only.
    """
    length = seconds / WINDOWS
    started = time.perf_counter()
    async with load.quiet():
        cpu, done, probed = server.cpu_seconds(), operations(), time.perf_counter()
        speed.probe()
    windows = []
    for index in range(1, WINDOWS + 1):
        await asyncio.sleep(max(0.0, started + index * length - time.perf_counter()))
        async with load.quiet():
            now_cpu, now_done, now_probed = (server.cpu_seconds(), operations(),
                                             time.perf_counter())
            speed.probe()
        windows.append((now_cpu - cpu, now_done - done, speed.factor(since=probed)))
        cpu, done, probed = now_cpu, now_done, now_probed
    return windows


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    outcome = Outcome()
    inputs = make_inputs(seed)
    with Speed() as speed:
        measured = asyncio.run(_serve(workload, seed, seconds, trace, work, inputs, outcome,
                                      speed))
    shutil.rmtree(work, ignore_errors=True)
    latencies = measured["latencies"]
    windows = measured["windows"]
    if workload == "serve-read":
        reference = _reference_answers(inputs, measured["reference_requests"])
        outcome.check("answers-equal-in-process", measured["served"] == reference,
                      "served answers differ from an in-process OBDASystem")
        op = latencies["read"]
        ops = len(op)
        note = "/answer"
    else:
        state: ChurnState = measured["churn"]
        outcome.check("answers-reexecute", state.cached_after_write == 0,
                      f"{state.cached_after_write} answers after a write came from the cache")
        op = latencies["poll"]
        ops = sum(len(latencies.get(kind, ())) for kind in ("write", "poll", "answer"))
        note = "/changes poll"
    outcome.end_to_end = {
        "setup_s": Metric(median([setup * factor for setup, factor
                                  in zip(measured["setups"], measured["setup_factors"])]),
                          "s", len(measured["setups"]),
                          "server start + 10 registrations, at reference speed"),
        "setup_raw_s": Metric(median(measured["setups"]), "s", len(measured["setups"]),
                              "the same as measured"),
        "peak_rss_mb": Metric(measured["peak_rss_mb"], "MB", note="server process"),
        "cold_s": Metric(median(measured["colds_adjusted"]), "s", len(measured["colds"]),
                         ("first answers" if workload == "serve-read" else "subscriptions")
                         + ", at reference speed"),
        "cold_raw_s": Metric(median(measured["colds"]), "s", len(measured["colds"]),
                             "the same as measured"),
        "op_p50_ms": Metric(median(op), "ms", len(op), note),
        "ops_per_s": Metric(ops / measured["elapsed"], "1/s", ops),
        "op_cpu_ms": Metric(ratio(sum(cpu * factor for cpu, _, factor in windows) * 1e3,
                                  sum(done for _, done, _ in windows)), "ms", ops,
                            "server CPU per operation, at reference speed"),
        "op_cpu_raw_ms": Metric(ratio(sum(cpu for cpu, _, _ in windows) * 1e3,
                                      sum(done for _, done, _ in windows)), "ms", ops,
                                "the same as measured"),
    }
    # The p99 is printed only, and left out when a slow run has too few
    # samples to put ten beyond it.
    if has_tail(op, 0.99):
        outcome.end_to_end["op_tail_ms"] = Metric(tail_quantile(op, 0.99), "ms", len(op), "p99")
    else:
        print(f"# op_tail_ms not reported: {len(op)} samples, a p99 needs 1000", flush=True)
    quantiles = {kind: samples for kind, samples in latencies.items() if len(samples) >= 100}
    if workload == "serve-churn":
        quantiles["step"] = measured["churn"].steps
    outcome.details = {
        "latency_p50_ms": {kind: median(samples) for kind, samples in latencies.items()},
        "latency_p50_p90_p95_p99_ms": {
            kind: [quantile(samples, q) for q in (0.5, 0.9, 0.95, 0.99)]
            for kind, samples in quantiles.items()
        },
        "samples": {kind: len(samples) for kind, samples in latencies.items()},
        "setup_samples_s": measured["setups"],
        "cold_samples_s": measured["colds"],
        "cold_adjusted_s": measured["colds_adjusted"],
        "stream_speed_factors": [factor for _, _, factor in windows],
        "speed_probes_ms": measured["speed_probes_ms"],
        "abox_facts": {name: len(facts) for name, facts in inputs.facts.items()},
        "bound_shapes": inputs.bound_shapes,
    }
    if workload == "serve-read":
        read: ReadState = measured["read"]
        outcome.details["traffic"] = {
            "binding_values": {name: len(values) for name, values in inputs.domain.items()},
            "values_with_answers": inputs.answered,
            "bound_share": ratio(read.bound, read.answers),
            "bound_answered_share": ratio(read.bound_answered, read.bound),
            "answer_cache_hit_ratio": ratio(read.cached, read.answers),
        }
    else:
        requests = {kind: len(latencies.get(kind, ())) for kind in ("write", "poll", "answer")}
        outcome.details["write_p50_ms"] = median(latencies["write"])
        outcome.details["traffic"] = {
            "request_share": {kind: ratio(count, ops) for kind, count in requests.items()},
            "poll_modes": state.modes,
            "full_refresh_share": ratio(state.modes.get("full", 0), state.polls),
            "delta_rows_per_poll": ratio(state.delta_rows, state.polls),
        }
    if trace:
        outcome.per_layer = _layer_metrics(measured)
        layers = _merge_layers(measured["traces"])
        outcome.details["layers"] = layers
        stream = measured["read"] if workload == "serve-read" else measured["churn"]
        kind = "read" if workload == "serve-read" else "poll"
        outcome.layer_report = {
            "serving.server_ms": Metric(median(measured["server_ms"][kind]), "ms",
                                        len(measured["server_ms"][kind]), "p50 of elapsed_ms"),
            "serving.transport_ms": Metric(median(stream.transport_ms), "ms",
                                           len(stream.transport_ms),
                                           "p50 of client latency minus elapsed_ms"),
        }
        for name in ("serving.encode", "backends.prepare", "backends.memory.execute",
                     "backends.sqlite.execute", "backends.sqlite.ensure_ready",
                     "database.mutate", "incremental.refresh", "serving.compile"):
            layer = layers.get(name)
            if layer is not None and layer["calls"]:
                outcome.layer_report[f"{name}_ms"] = Metric(
                    layer["total_ms"] / layer["calls"], "ms", layer["calls"], "mean per call")
    return outcome


def _merge_layers(traces: list[dict]) -> dict:
    merged: dict[str, dict[str, float]] = {}
    for folded in traces:
        for name, layer in folded["layers"].items():
            into = merged.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            for key in into:
                into[key] += layer[key]
    return merged


def _layer_metrics(measured: dict) -> dict[str, Metric]:
    from repro.core.rewriter import RewritingStatistics

    traces = measured["traces"]
    if len(traces) != SERVERS:
        raise BenchmarkError(f"{len(traces)} of {SERVERS} servers wrote a trace")
    layers = _merge_layers(traces)
    events: dict[str, int] = {}
    for folded in traces:
        for name, value in folded["events"].items():
            events[name] = events.get(name, 0) + value
    # The first server's engine counters: the cold phase alone.
    totals = {key: value for key, value in traces[0]["engine_statistics"].items()
              if key not in RewritingStatistics.VOLATILE_FIELDS}
    first = traces[0]["engine_statistics"]
    engine_s = sum(folded["engine_statistics"]["elapsed_seconds"] for folded in traces)
    metrics = compile_layer_metrics(
        totals=totals,
        memo=(first["unification_memo_hits"], first["unification_memo_misses"]),
        engine_s=engine_s,
        entry_s=layers.get("serving.compile", {}).get("total_ms", 0.0) / 1e3,
        workers=1,
        layers=layers,
        events=events,
        phases=SERVERS,
        store_bytes=measured["store_bytes"],
        stored_cqs=traces[0]["events"].get("core.output_cqs", 0),
    )
    cold = measured.get("cold")
    read = measured.get("read")
    churn = measured.get("churn")

    def calls(name: str) -> float:
        return layers.get(name, {}).get("calls", 0) / SERVERS

    values = {
        "serving.source.engine": cold.sources.get("engine", 0) if cold else
        events.get("serving.compile.engine", 0) / SERVERS,
        "serving.source.memory": cold.sources.get("memory", 0) if cold else
        events.get("serving.compile.memory", 0) / SERVERS,
        "serving.source.store": events.get("serving.compile.store", 0) / SERVERS,
        "scheduling.auto.parallel_generations": (
            events.get("scheduling.auto.chunked", 0) + events.get("scheduling.auto.threaded", 0)
        ) / SERVERS,
        "scheduling.auto.sequential_generations":
            events.get("scheduling.auto.sequential", 0) / SERVERS,
        "backends.answer_cache_hit_ratio": ratio(read.cached, read.answers) if read else 0.0,
        "backends.memory.executes": calls("backends.memory.execute"),
        "backends.sqlite.executes": calls("backends.sqlite.execute"),
        "backends.prepares": calls("backends.prepare"),
        "backends.sqlite.full_loads": events.get("backends.sqlite.full_loads", 0) / SERVERS,
        "backends.sqlite.incremental_loads":
            events.get("backends.sqlite.incremental_loads", 0) / SERVERS,
        "database.mutations": calls("database.mutate"),
        "incremental.full_refresh_ratio":
            ratio(churn.modes.get("full", 0), churn.polls) if churn else 0.0,
        "incremental.delta_rows_per_poll": ratio(churn.delta_rows, churn.polls) if churn else 0.0,
    }
    metrics.update((name, Metric(values[name], unit)) for name, unit in SERVING_LAYER_COUNTS)
    return metrics
