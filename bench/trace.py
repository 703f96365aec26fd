"""In-memory span recorder for the traced run.

A span is ``[name, lane, start, end, parent, call, n, cpu]``: ``lane`` 0 is
the benchmark process and any other lane is the pid of a forked pool worker;
``parent`` indexes the enclosing span of the same lane; ``call`` numbers the
root span (one ``train()`` / ``SELECT`` / ``Database.open`` call) it belongs
to; ``n`` is an optional work count (rows, bytes) supplied by the hook; ``cpu``
is the CPU time a worker spent inside the span (0 in the main lane, whose
spans never wait for a CPU a sibling holds).

Spans are kept in memory and written once, when the run ends.  Forked
workers inherit the wrappers with this recorder inside them; a worker cannot
hand memory back, so it appends each finished span to a per-pid file that the
parent folds in after the pools are closed.
"""

from __future__ import annotations

import bisect
import json
import mmap
import os
import time
from collections import defaultdict
from pathlib import Path

NAME, LANE, START, END, PARENT, CALL, COUNT, CPU = range(8)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _named(span: list, prefix: str) -> bool:
    return span[NAME] == prefix or span[NAME].startswith(prefix + ".")


class Recorder:
    def __init__(self, worker_dir: Path):
        self.pid = os.getpid()
        self.worker_dir = Path(worker_dir)
        #: One shared byte: forked workers inherit the mapping, so switching
        #: recording off in the parent switches it off in every worker too.
        self._switch = mmap.mmap(-1, 1)
        self._muted = False
        self.enabled = True
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._calls = 0
        self._mark_times: list[float] = []
        self._mark_phases: list[str] = []
        self._worker_file = None

    @property
    def enabled(self) -> bool:
        """Wrappers stay installed for the whole traced run but record only
        while this is set, so the same run can time calls with tracing off
        and report the overhead as a paired difference."""
        return self._switch[0] == 1 and not self._muted

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._switch[0] = int(value)

    # ------------------------------------------------------------ recording
    def begin(self, name: str) -> int:
        if os.getpid() != self.pid:
            self._become_worker()
        if self._stack:
            parent = self._stack[-1]
            call = self.spans[parent][CALL]
        else:
            parent = -1
            self._calls += 1
            call = self._calls
        index = len(self.spans)
        cpu = time.process_time() if self._worker_file is not None else 0.0
        self.spans.append([name, 0, time.perf_counter(), None, parent, call, None, cpu])
        self._stack.append(index)
        return index

    def end(self, index: int, count: float | None = None) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[COUNT] = count
        if self._worker_file is not None:
            span[CPU] = time.process_time() - span[CPU]
        # An exception may unwind several frames at once; drop everything
        # above this span so later spans do not nest under dead ones.
        del self._stack[self._stack.index(index):]
        if self._worker_file is not None:
            self._worker_file.write(json.dumps([index] + span) + "\n")
            self._worker_file.flush()

    def _become_worker(self) -> None:
        """First span in a forked child: forget the parent's state, log to a file."""
        self.pid = os.getpid()
        self.spans = []
        self._stack = []
        self._calls = 0
        self._worker_file = open(self.worker_dir / f"worker-spans-{self.pid}.jsonl", "a")

    def mute_in_child(self) -> None:
        """Called in a forked child whose spans are not part of this run."""
        self._muted = True

    def mark(self, phase: str) -> None:
        """Everything that starts from now on belongs to ``phase``."""
        self._mark_times.append(time.perf_counter())
        self._mark_phases.append(phase)

    # -------------------------------------------------------------- reading
    def fold_worker_files(self) -> None:
        """Append every worker's spans as its own lane and remove the files.

        Only spans inside one of the parent's own ``pool.run`` spans are kept
        (a worker also works while it is being loaded), and they take that
        span's call number.
        """
        dispatches = [span for span in self.spans
                      if span[NAME] == "pool.run" and span[END] is not None]
        for path in sorted(self.worker_dir.glob("worker-spans-*.jsonl")):
            lane = int(path.stem.rsplit("-", 1)[1])
            with open(path) as handle:
                rows = sorted(json.loads(line) for line in handle)
            path.unlink()
            # Spans reach the file as they finish, children first; restore
            # the worker's own numbering before re-basing parent links.
            position: dict[int, int] = {}
            for index, *span in rows:
                if span[PARENT] in position:
                    span[CALL] = self.spans[position[span[PARENT]]][CALL]
                else:
                    owner = next((d for d in dispatches
                                  if d[START] <= span[START] and span[END] <= d[END]), None)
                    if owner is None:
                        continue
                    span[CALL] = owner[CALL]
                span[LANE] = lane
                span[PARENT] = position.get(span[PARENT], -1)
                position[index] = len(self.spans)
                self.spans.append(span)

    def phase_of(self, span: list) -> str:
        position = bisect.bisect_right(self._mark_times, span[START]) - 1
        return self._mark_phases[position] if position >= 0 else ""

    def finished(self, phases: set[str] | None = None) -> list[list]:
        return [
            span for span in self.spans
            if span[END] is not None and (phases is None or self.phase_of(span) in phases)
        ]

    def dump(self, path: Path) -> None:
        payload = {
            "columns": ["name", "lane", "start", "end", "parent", "call", "count", "cpu",
                        "phase"],
            "spans": [span + [self.phase_of(span)] for span in self.spans if span[END] is not None],
        }
        path.write_text(json.dumps(payload))


class SpanTable:
    """Totals, self times and counts over a selection of finished spans."""

    def __init__(self, recorder: Recorder, phases: set[str]):
        self.spans = recorder.finished(phases)
        selected = {id(span) for span in self.spans}
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                parent = recorder.spans[span[PARENT]]
                if id(parent) in selected:
                    covered[id(parent)] += span[END] - span[START]
        self._self = {id(span): span[END] - span[START] - covered[id(span)] for span in self.spans}
        self._recorder = recorder

    def _matching(self, prefix: str):
        for span in self.spans:
            if _named(span, prefix):
                yield span

    def total(self, prefix: str) -> float:
        """Seconds inside spans named ``prefix[.x]``, outermost occurrences only."""
        seconds = 0.0
        for span in self._matching(prefix):
            if not self._has_ancestor(span, prefix):
                seconds += span[END] - span[START]
        return seconds

    def busy(self, prefix: str) -> float:
        """Seconds spent working in ``prefix`` spans: wall time in the main lane, CPU
        time in worker lanes, whose wall time includes waiting for a CPU a sibling holds."""
        seconds = 0.0
        for span in self._matching(prefix):
            if not self._has_ancestor(span, prefix):
                seconds += span[CPU] if span[LANE] else span[END] - span[START]
        return seconds

    def _has_ancestor(self, span: list, prefix: str) -> bool:
        parent = span[PARENT]
        while parent >= 0:
            ancestor = self._recorder.spans[parent]
            if _named(ancestor, prefix):
                return True
            parent = ancestor[PARENT]
        return False

    def self_time(self, prefix: str) -> float:
        return sum(self._self[id(span)] for span in self._matching(prefix))

    def count(self, prefix: str) -> int:
        return sum(1 for _ in self._matching(prefix))

    def work(self, prefix: str) -> float:
        return float(sum(span[COUNT] or 0 for span in self._matching(prefix)))

    def max_work(self, prefix: str) -> float:
        return float(max((span[COUNT] or 0 for span in self._matching(prefix)), default=0))

    def count_under(self, prefix: str, ancestor: str) -> int:
        return sum(1 for span in self._matching(prefix) if self._has_ancestor(span, ancestor))

    def root_seconds(self) -> float:
        return sum(
            span[END] - span[START] for span in self.spans
            if span[LANE] == 0 and span[PARENT] < 0
        )

    def main_lane_self_sum(self) -> float:
        return sum(self._self[id(span)] for span in self.spans if span[LANE] == 0)

    def layer_self_seconds(self) -> dict[str, float]:
        """Main-lane self time per layer: the blocking path, which sums to the calls."""
        layers: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span[LANE] == 0:
                layers[layer_of(span[NAME])] += self._self[id(span)]
        return dict(layers)
