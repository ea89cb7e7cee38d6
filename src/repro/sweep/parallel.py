"""Conservative parallel execution of a sharded build across processes.

:func:`run_sharded` drives a SoC built with ``SocBuilder(shards=N)``
either in this process (``processes=0`` — the reference run every
parallel run must reproduce byte-identically) or across one worker
process per shard.  Workers run the ordinary event-wheel kernel on
their own shard (every foreign component muted, see
:func:`repro.sim.shard.restrict_to_shard`); the coordinator owns the
clock protocol:

1. every worker reports its next local event cycle ``E_k`` (or None if
   dormant until an envelope arrives);
2. the coordinator computes the round bound
   ``B = max(T, min(E_k, pending envelope horizons)) + W`` — ``W`` the
   fabric-wide lookahead window (min over cut links of
   ``min(1 + pipeline_latency, credit_return_latency)``) — clipped to
   the requested run length;
3. workers apply the boundary batches routed to them, simulate to
   ``B``, and return whatever their boundary halves emitted.

Any envelope emitted during ``[T, B)`` originates at an event cycle
``>= min_k E_k``, so it matures at or after ``B`` — exchanging only at
barriers is exact (see the :mod:`repro.sim.shard` module docstring for
the proof sketch).  Batches are dispatched in canonical order (sorted
by boundary-link name, envelopes sorted by ``(cycle, seq)``), so the
merged run is byte-identical to the single-process run of the same
build, independent of worker scheduling.

Timing is reported on two bases, because the speedup claim and the
wall clock answer different questions on a shared machine:

- ``wall_s`` — honest end-to-end wall time of this run, workers and
  coordinator included.  On a single-CPU host the workers time-slice
  one core, so ``wall_s`` of a parallel run is never better than the
  single-process run.
- ``critical_path_s`` — per round, the *slowest worker's* simulate
  time, plus all coordinator routing/dispatch time; summed over
  rounds.  Worker time is CPU time (``time.process_time``), not wall
  time: on a box with fewer cores than workers the workers time-slice,
  and a descheduled worker's wall clock would charge it for its
  siblings' work.  CPU time is what each worker would take with a core
  of its own (workers within a round are independent), so the sum of
  per-round maxima is the wall time the protocol would deliver on an
  unshared machine — the basis for ``parallel_speedup``.  The
  coordinator's recv-side deserialization overlaps worker compute in
  that model and is not charged.  The bench records both bases so the
  claim is auditable.

Only fixed-cycle runs are supported (``soc.run(cycles)`` semantics);
run-to-completion across shards needs a global quiescence detector and
is an open item on the ROADMAP.
"""

from __future__ import annotations

import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from repro.phys.link import PhysicalLink
from repro.protocols.base import ProtocolMaster
from repro.sim.shard import (
    ShardConfigError,
    ShardLinkTx,
    fingerprint_shard,
    merge_shard_fingerprints,
    restrict_to_shard,
    shard_next_event,
)
from repro.transport.router import Router
from repro.sweep.worker import mp_context


class ShardWorkerError(RuntimeError):
    """A shard worker process died or raised; carries its traceback."""


# --------------------------------------------------------------------- #
# shared helpers (worker and in-process paths)
# --------------------------------------------------------------------- #
def _boundary_halves(soc) -> Tuple[Dict[str, object], Dict[str, object]]:
    """All boundary tx/rx halves across planes, keyed by component name."""
    all_tx: Dict[str, object] = {}
    all_rx: Dict[str, object] = {}
    for plane in soc.fabric._planes:
        for tx in plane.boundary_tx.values():
            all_tx[tx.name] = tx
        for rx in plane.boundary_rx.values():
            all_rx[rx.name] = rx
    return all_tx, all_rx


def _boundary_meta(soc) -> Dict:
    """Routing metadata the coordinator needs — derived from the build
    (identical in every worker), so the coordinator never builds."""
    plan = soc.shard_plan
    flit_routes: Dict[str, str] = {}
    credit_routes: Dict[str, str] = {}
    rx_shard: Dict[str, int] = {}
    tx_shard: Dict[str, int] = {}
    credit_return: Dict[str, int] = {}
    windows: List[int] = []
    for plane in soc.fabric._planes:
        for (src, dst), tx in plane.boundary_tx.items():
            rx = plane.boundary_rx[(src, dst)]
            flit_routes[tx.name] = rx.name
            credit_routes[rx.name] = tx.name
            tx_shard[tx.name] = plan.shard_of(src)
            rx_shard[rx.name] = plan.shard_of(dst)
            credit_return[tx.name] = tx.credit_return_latency
            windows.append(tx.window)
    return {
        "n_shards": plan.n_shards,
        "window": min(windows) if windows else 1,
        "flit_routes": flit_routes,
        "credit_routes": credit_routes,
        "rx_shard": rx_shard,
        "tx_shard": tx_shard,
        "credit_return": credit_return,
    }


def _metrics(fingerprint: Dict) -> Dict[str, int]:
    """A run's traffic totals: sums over its fingerprint's sections."""
    return {
        "flits_forwarded": Router.COUNTERS.total(fingerprint, "flits_forwarded"),
        "phits_carried": sum(link.COUNTERS.total(fingerprint, "phits_carried")
                             for link in (PhysicalLink, ShardLinkTx)),
        "completed": ProtocolMaster.COUNTERS.total(fingerprint, "completed"),
    }


# --------------------------------------------------------------------- #
# worker process
# --------------------------------------------------------------------- #
def _shard_worker_main(conn, builder: Callable, shard: int) -> None:
    try:
        soc = builder()
        if soc.shard_plan is None:
            raise ShardConfigError(
                "run_sharded() needs a sharded build — construct with "
                "SocBuilder(shards=...)"
            )
        restrict_to_shard(soc, shard)
        all_tx, all_rx = _boundary_halves(soc)
        owner = soc.shard_ownership.component_owner
        owned_tx = [
            name for name in sorted(all_tx) if owner[name] == shard
        ]
        owned_rx = [
            name for name in sorted(all_rx) if owner[name] == shard
        ]
        conn.send(("ready", _boundary_meta(soc)))
        while True:
            message = conn.recv()
            command = message[0]
            if command == "run":
                __, bound, flit_batches, credit_batches = message
                for rx_name, envelopes in flit_batches:
                    all_rx[rx_name].receive_flits(envelopes)
                for tx_name, credits in credit_batches:
                    all_tx[tx_name].receive_credits(credits)
                started = time.process_time()
                soc.sim.run(bound - soc.sim.cycle)
                busy = time.process_time() - started
                flits_out = []
                for name in owned_tx:
                    tx = all_tx[name]
                    if tx.outbox:
                        flits_out.append((name, list(tx.outbox)))
                        tx.outbox.clear()
                credits_out = []
                for name in owned_rx:
                    rx = all_rx[name]
                    if rx.credit_outbox:
                        credits_out.append((name, list(rx.credit_outbox)))
                        rx.credit_outbox.clear()
                conn.send(
                    (
                        "done",
                        shard_next_event(soc.sim),
                        busy,
                        flits_out,
                        credits_out,
                    )
                )
            elif command == "finish":
                conn.send(("result", fingerprint_shard(soc, shard)))
                conn.close()
                return
            else:
                raise RuntimeError(f"unknown command {command!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass


# --------------------------------------------------------------------- #
# coordinator
# --------------------------------------------------------------------- #
def _run_single_process(builder: Callable, cycles: int) -> Dict:
    """The reference: the same sharded build, one process, boundary
    halves handing envelopes to each other directly."""
    from repro.sim.fingerprint import fingerprint_soc

    soc = builder()
    if soc.shard_plan is None:
        raise ShardConfigError(
            "run_sharded() needs a sharded build — construct with "
            "SocBuilder(shards=...)"
        )
    started = time.perf_counter()
    cpu_started = time.process_time()
    soc.run(cycles)
    cpu = time.process_time() - cpu_started
    wall = time.perf_counter() - started
    fingerprint = fingerprint_soc(soc)
    return {
        "processes": 1,
        "fingerprint": fingerprint,
        "cycle": soc.sim.cycle,
        "metrics": _metrics(fingerprint),
        "timing": {
            "wall_s": wall,
            # Same CPU-time basis as the parallel critical path, so
            # parallel_speedup compares like with like.
            "critical_path_s": cpu,
            "busy_total_s": cpu,
            "coordinator_s": 0.0,
            "rounds": 0,
            "safe_window_mean": float(cycles),
            "boundary_batches": 0,
            "boundary_flits": 0,
            "boundary_credits": 0,
        },
    }


def run_sharded(builder: Callable, *, cycles: int, processes: int) -> Dict:
    """Run a sharded build for ``cycles`` and return its merged state.

    ``builder`` is a zero-argument callable returning a SoC built with
    ``SocBuilder(shards=N)`` (workers rebuild it via fork, so it needn't
    pickle).  ``processes=0`` (or 1) runs single-process in this
    process; otherwise ``processes`` must equal the build's shard count
    — one worker per shard.  Returns::

        {"processes": P, "fingerprint": ..., "cycle": C,
         "metrics": {completed, flits_forwarded, phits_carried},
         "timing": {wall_s, critical_path_s, busy_total_s,
                    coordinator_s, rounds, safe_window_mean,
                    boundary_batches, boundary_flits, boundary_credits}}

    The fingerprint of a ``processes=N`` run is byte-identical to the
    ``processes=0`` run of the same builder (the determinism tests pin
    this); timing bases are documented in the module docstring.
    """
    if cycles <= 0:
        raise ValueError(f"cycles must be > 0, got {cycles}")
    if processes in (0, 1):
        return _run_single_process(builder, cycles)
    context = mp_context()
    workers = []
    connections = []
    wall_started = time.perf_counter()
    try:
        for shard in range(processes):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker_main,
                args=(child_conn, builder, shard),
                daemon=True,
            )
            process.start()
            child_conn.close()
            workers.append(process)
            connections.append(parent_conn)

        def expect(conn, *kinds):
            message = conn.recv()
            if message[0] == "error":
                raise ShardWorkerError(
                    f"shard worker failed:\n{message[1]}"
                )
            if message[0] not in kinds:
                raise ShardWorkerError(
                    f"unexpected worker message {message[0]!r}"
                )
            return message

        metas = [expect(conn, "ready")[1] for conn in connections]
        meta = metas[0]
        if meta["n_shards"] != processes:
            raise ShardConfigError(
                f"build has {meta['n_shards']} shards but processes="
                f"{processes}; run one worker per shard"
            )
        window = meta["window"]
        flit_routes = meta["flit_routes"]
        credit_routes = meta["credit_routes"]
        rx_shard = meta["rx_shard"]
        tx_shard = meta["tx_shard"]
        credit_return = meta["credit_return"]

        horizon_cap = 0
        flits_in_transit: Dict[str, List] = {}
        pending_credits: Dict[str, List] = {}
        next_events: List[Optional[int]] = [0] * processes
        rounds = 0
        window_sum = 0
        batches = flit_count = credit_count = 0
        busy_total = critical_path = coordinator_s = 0.0
        now = 0
        while now < cycles:
            coord_started = time.perf_counter()
            horizons = [e for e in next_events if e is not None]
            for rx_name, envelopes in flits_in_transit.items():
                horizons.append(envelopes[0][0])
            for tx_name, credits in pending_credits.items():
                horizons.append(credits[0][0] + credit_return[tx_name])
            if horizons:
                bound = min(max(now, min(horizons)) + window, cycles)
            else:
                # Every shard dormant, nothing in transit: idle-skip the
                # rest of the run in one round.
                bound = cycles
            shard_flits: List[List] = [[] for _ in range(processes)]
            shard_credits: List[List] = [[] for _ in range(processes)]
            for rx_name in sorted(flits_in_transit):
                envelopes = flits_in_transit[rx_name]
                envelopes.sort(key=lambda e: (e[0], e[2]))
                shard_flits[rx_shard[rx_name]].append((rx_name, envelopes))
            for tx_name in sorted(pending_credits):
                credits = pending_credits[tx_name]
                credits.sort()
                shard_credits[tx_shard[tx_name]].append((tx_name, credits))
            flits_in_transit = {}
            pending_credits = {}
            for shard, conn in enumerate(connections):
                conn.send(
                    ("run", bound, shard_flits[shard], shard_credits[shard])
                )
            coordinator_s += time.perf_counter() - coord_started
            round_busy = 0.0
            replies = [expect(conn, "done") for conn in connections]
            coord_started = time.perf_counter()
            for shard, reply in enumerate(replies):
                __, next_event, busy, flits_out, credits_out = reply
                next_events[shard] = next_event
                busy_total += busy
                round_busy = max(round_busy, busy)
                for tx_name, envelopes in flits_out:
                    flits_in_transit.setdefault(
                        flit_routes[tx_name], []
                    ).extend(envelopes)
                    batches += 1
                    flit_count += len(envelopes)
                for rx_name, credits in credits_out:
                    pending_credits.setdefault(
                        credit_routes[rx_name], []
                    ).extend(credits)
                    batches += 1
                    credit_count += len(credits)
            rounds += 1
            window_sum += bound - now
            now = bound
            coordinator_s += time.perf_counter() - coord_started
            critical_path += round_busy
        critical_path += coordinator_s

        for conn in connections:
            conn.send(("finish",))
        merged = merge_shard_fingerprints(
            [expect(conn, "result")[1] for conn in connections]
        )
        wall = time.perf_counter() - wall_started
        return {
            "processes": processes,
            "fingerprint": merged,
            "cycle": merged["cycle"],
            "metrics": _metrics(merged),
            "timing": {
                "wall_s": wall,
                "critical_path_s": critical_path,
                "busy_total_s": busy_total,
                "coordinator_s": coordinator_s,
                "rounds": rounds,
                "safe_window_mean": (
                    window_sum / rounds if rounds else float(cycles)
                ),
                "boundary_batches": batches,
                "boundary_flits": flit_count,
                "boundary_credits": credit_count,
            },
        }
    finally:
        for process in workers:
            if process.is_alive():
                process.terminate()
        for process in workers:
            process.join(timeout=10)
        for conn in connections:
            try:
                conn.close()
            except Exception:
                pass
