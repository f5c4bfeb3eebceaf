"""The fork-once worker pool: the one parallel route of the passes (Section 5.1).

Scores of one iteration depend only on the previous iteration's
equivalences, never on each other, so every pass can be cut into
contiguous index ranges and scored on "all available processors".
:class:`WorkerPool` forks its workers once per run; they inherit the
ontologies, literal indexes and the vectorized kernel through
copy-on-write memory, each pass broadcasts one small payload, tasks
are bare ``(lo, hi)`` ranges, and results merge strictly in task
order — nothing re-pickles an ontology, and every route fills the
stores in the sequential insertion order, so results are
bit-identical to ``workers=1``.  The pool needs the vectorized kernel
and the ``fork`` start method; any pass without them runs
sequentially on the dict code, which otherwise survives only as the
bit-exactness oracle.  The design and the bit-identity argument live
in ``docs/architecture.md`` (section "The core: one engine per pass");
the guarantee is enforced by ``tests/test_parallel.py`` /
``tests/test_parallel_properties.py`` / ``tests/test_vectorized.py``.

The pool's payload format (one dict per pass, keyed by ``"kind"``) is
private to this module: callers go through :meth:`WorkerPool.score_instances`,
:meth:`WorkerPool.relation_rows` and :meth:`WorkerPool.class_rows`.
"""

from __future__ import annotations

import math
import multiprocessing
import queue as queue_module
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from ..rdf.ontology import Ontology
from ..rdf.terms import Relation, Resource
from .literal_index import LiteralIndex
from .matrix import SubsumptionMatrix
from .store import EquivalenceStore
from .subclasses import closed_classes_of, score_classes
from .subrelations import apply_relation_scores, score_relation, subrelation_pass
from .vectorized import VectorizedKernel
from .view import EquivalenceView

#: Tasks per worker.  Several small ranges per worker smooth out skew
#: (a range of hub instances with many statements costs more than one
#: of leaves) without drowning the pass in dispatch overhead.
SHARDS_PER_WORKER = 4


def fork_available() -> bool:
    """Whether this platform offers the ``fork`` start method the pool needs."""
    return "fork" in multiprocessing.get_all_start_methods()


# ----------------------------------------------------------------------
# the persistent worker pool
# ----------------------------------------------------------------------

#: Read-only run state handed to forked pool workers: set immediately
#: before the fork, cleared right after, inherited via copy-on-write.
_POOL_FORK_STATE: Optional[tuple] = None

#: How long the parent waits between result polls before re-checking
#: that its workers are still alive (a crashed worker would otherwise
#: hang the pass forever).
_POOL_POLL_SECONDS = 2.0


def even_ranges(total: int, num_tasks: int) -> List[Tuple[int, int]]:
    """``num_tasks`` contiguous ``(lo, hi)`` ranges covering ``total``."""
    if total <= 0:
        return []
    num_tasks = max(1, min(num_tasks, total))
    step = math.ceil(total / num_tasks)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _run_pool_task(state: tuple, payload: dict, cache: dict, span: Tuple[int, int]):
    """Execute one ``(lo, hi)`` task against the fork-inherited state."""
    ontology1, ontology2, literals2, literals1, kernel = state
    lo, hi = span
    kind = payload["kind"]
    if kind == "instances":
        return kernel.score_ids(payload["ids"][lo:hi], payload["prepared"], payload["theta"])
    # Relation/class tasks score with the dict code against a store
    # rebuilt once per pass from the shipped id arrays (both row
    # orderings preserved — see EquivalenceStore.backward_items).
    view = cache.get("view")
    if view is None:
        store = kernel.rebuild_store(payload["store"], payload["threshold"])
        view = EquivalenceView(store, literals2, literals1)
        cache["view"] = view
    reverse = payload["reverse"]
    first, second = (ontology2, ontology1) if reverse else (ontology1, ontology2)
    cap = payload["cap"]
    if kind == "relations":
        relations = first.relations(include_inverses=True)
        return [
            score_relation(relations[index], first, second, view, cap, reverse=reverse)
            for index in range(lo, hi)
        ]
    if kind == "classes":
        if "closure" not in cache:
            # The inherited set object iterates identically in parent
            # and child, so index ranges address the same classes.
            cache["classes"] = list(first.classes)
            cache["closure"] = closed_classes_of(second)
        return score_classes(
            cache["classes"][lo:hi], first, view, cache["closure"], cap, reverse=reverse
        )
    raise ValueError(f"unknown pool task kind {kind!r}")


def _pool_worker_main(worker_index: int, task_queue, result_queue) -> None:
    """Worker loop: consume pass broadcasts and tasks until told to stop."""
    state = _POOL_FORK_STATE
    payload: Optional[dict] = None
    cache: dict = {}
    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "stop":
            break
        if kind == "pass":
            payload = message[2]
            cache = {}
            continue
        _kind, task_id, span = message
        try:
            result = _run_pool_task(state, payload, cache, span)
        except BaseException:
            result_queue.put((worker_index, task_id, traceback.format_exc(), None))
        else:
            result_queue.put((worker_index, task_id, None, result))


class WorkerPool:
    """Fork-once worker pool for the whole fixpoint (zero re-pickling).

    Workers are forked at construction and inherit the ontologies,
    literal indexes and the vectorized ``kernel`` through copy-on-write
    memory.  Each pass method broadcasts one small payload, feeds
    ``(lo, hi)`` index-range tasks to whichever worker is free, and
    returns results **in task order** regardless of completion order,
    so pool scheduling can never perturb downstream float
    accumulation.

    The pool requires the ``fork`` start method: forked workers share
    the parent's hash seed and object identities, which is what makes
    their dict/set iteration orders — and hence their floats — exactly
    equal to an in-process run.
    """

    def __init__(
        self,
        workers: int,
        ontology1: Ontology,
        ontology2: Ontology,
        literals2: LiteralIndex,
        literals1: LiteralIndex,
        kernel: VectorizedKernel,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not fork_available():
            raise RuntimeError("WorkerPool requires the fork start method")
        context = multiprocessing.get_context("fork")
        self.workers = workers
        self.ontology1 = ontology1
        self.ontology2 = ontology2
        self.kernel = kernel
        #: Ontology versions the forked state was built from; owners
        #: compare against their kernel's to detect a stale pool.
        self.versions = kernel.versions
        self._task_queues = [context.SimpleQueue() for _ in range(workers)]
        self._results = context.Queue()
        self._closed = False
        global _POOL_FORK_STATE
        _POOL_FORK_STATE = (ontology1, ontology2, literals2, literals1, kernel)
        try:
            self._processes = [
                context.Process(
                    target=_pool_worker_main,
                    args=(index, self._task_queues[index], self._results),
                    daemon=True,
                )
                for index in range(workers)
            ]
            for process in self._processes:
                process.start()
        finally:
            _POOL_FORK_STATE = None

    @property
    def num_tasks(self) -> int:
        """Tasks one pass is cut into."""
        return self.workers * SHARDS_PER_WORKER

    def score_instances(self, ids, prepared, theta: float) -> List[tuple]:
        """Eq. 13 kernel scores of the instance ids ``ids``, one
        ``(x_ids, x'_ids, scores)`` result per task, in task order
        (concatenated, they are :meth:`VectorizedKernel.score_ids`'s
        output)."""
        payload = {"kind": "instances", "ids": ids, "prepared": prepared, "theta": theta}
        tasks = self.kernel.task_ranges(ids, prepared, self.num_tasks)
        return self._run_pass(payload, tasks)

    def relation_rows(
        self, view_store: EquivalenceStore, reverse: bool, max_pairs: int
    ) -> Optional[List[Tuple[Relation, Optional[Dict[Relation, float]]]]]:
        """Eq. 12 ``(relation, row)`` pairs for every relation of the
        scored side, in registration order (the order
        :func:`.subrelations.subrelation_pass` folds them).  ``None``
        when ``view_store`` mentions a node the kernel never interned."""
        first = self.ontology2 if reverse else self.ontology1
        relations = first.relations(include_inverses=True)
        rows = self._store_pass("relations", view_store, reverse, max_pairs, len(relations))
        return None if rows is None else list(zip(relations, rows))

    def class_rows(
        self, view_store: EquivalenceStore, reverse: bool, max_instances: int
    ) -> Optional[List[Tuple[Resource, Dict[Resource, float]]]]:
        """Eq. 17 ``(class, scores)`` pairs for every class of the
        scored side, in the set order :func:`.subclasses.subclass_pass`
        traverses.  ``None`` as for :meth:`relation_rows`."""
        first = self.ontology2 if reverse else self.ontology1
        return self._store_pass("classes", view_store, reverse, max_instances, len(first.classes))

    def _store_pass(
        self, kind: str, view_store: EquivalenceStore, reverse: bool, cap: int, count: int
    ) -> Optional[list]:
        """Run a relation/class pass against ``view_store`` shipped as
        id arrays; per-item results flattened in item order."""
        lowered = self.kernel.lower_store(view_store)
        if lowered is None:
            return None
        payload = {
            "kind": kind,
            "store": lowered,
            "threshold": view_store.truncation_threshold,
            "reverse": reverse,
            "cap": cap,
        }
        results = self._run_pass(payload, even_ranges(count, self.num_tasks))
        return [item for result in results for item in result]

    def _run_pass(self, payload: dict, tasks: Sequence[Tuple[int, int]]) -> List:
        """Broadcast ``payload``, run ``tasks``, return results in task order."""
        from ..obs.trace import span

        with span(
            "pool.run_pass",
            kind=payload["kind"],
            tasks=len(tasks),
            workers=self.workers,
        ):
            return self._dispatch(payload, tasks)

    def _dispatch(self, payload: dict, tasks: Sequence[Tuple[int, int]]) -> List:
        if self._closed:
            raise RuntimeError("pool is closed")
        for task_queue in self._task_queues:
            task_queue.put(("pass", None, payload))
        results: List = [None] * len(tasks)
        pending = list(range(len(tasks) - 1, -1, -1))
        inflight = 0
        for worker_index in range(self.workers):
            if not pending:
                break
            task_id = pending.pop()
            self._task_queues[worker_index].put(("task", task_id, tasks[task_id]))
            inflight += 1
        while inflight:
            try:
                worker_index, task_id, error, result = self._results.get(
                    timeout=_POOL_POLL_SECONDS
                )
            except queue_module.Empty:
                dead = [p.pid for p in self._processes if not p.is_alive()]
                if dead:
                    self.close()
                    raise RuntimeError(f"pool worker(s) died: pids {dead}")
                continue
            inflight -= 1
            if error is not None:
                self.close()
                raise RuntimeError(f"pool worker task failed:\n{error}")
            results[task_id] = result
            if pending:
                task_id = pending.pop()
                self._task_queues[worker_index].put(("task", task_id, tasks[task_id]))
                inflight += 1
        return results

    def close(self) -> None:
        """Stop the workers; idempotent, safe after worker death."""
        if self._closed:
            return
        self._closed = True
        for task_queue in self._task_queues:
            try:
                task_queue.put(("stop",))
            except (OSError, ValueError):
                pass
        for process in self._processes:
            process.join(timeout=5)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        self._results.cancel_join_thread()
        self._results.close()
        for task_queue in self._task_queues:
            task_queue.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def parallel_subrelation_pass(
    ontology1: Ontology,
    ontology2: Ontology,
    view: EquivalenceView,
    truncation_threshold: float,
    max_pairs: int,
    reverse: bool = False,
    bootstrap_theta: float = 0.0,
    pool: Optional[WorkerPool] = None,
) -> SubsumptionMatrix[Relation]:
    """One direction of the Eq. 12 relation pass, on ``pool`` if given.

    Without a pool (or when the view store cannot be lowered to the
    kernel's ids) this is :func:`.subrelations.subrelation_pass`.  On
    the pool, relations are scored in their canonical registration
    order and folded in that order, so the matrix fills exactly as the
    sequential pass fills it.  ``ontology1`` is the side whose
    relations are scored (the right ontology when ``reverse``).
    """
    rows = pool.relation_rows(view.store, reverse, max_pairs) if pool is not None else None
    if rows is None:
        return subrelation_pass(
            ontology1,
            ontology2,
            view,
            truncation_threshold,
            max_pairs,
            reverse=reverse,
            bootstrap_theta=bootstrap_theta,
        )
    matrix: SubsumptionMatrix[Relation] = SubsumptionMatrix()
    apply_relation_scores(matrix, rows, truncation_threshold, bootstrap_theta)
    return matrix
