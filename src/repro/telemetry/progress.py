"""Live progress rendering from the telemetry event stream.

:class:`ProgressSink` is an ordinary telemetry sink that *observes*
``grid`` / ``round`` / ``cell`` events and renders a rate-limited,
single-line progress display with an ETA to stderr.  Two invariants keep
it safe to attach anywhere:

* **it never writes into the event stream** — wall-clock exists only on
  the rendering side, so a trace recorded with progress enabled is
  byte-identical to one recorded without (asserted by a golden test);
* **it is pull-only** — totals come from the deterministic ``grid``
  start event (``cells`` requested, ``pending`` uncached), per-cell
  ticks from ``cell`` events, and intra-cell movement from ``round``
  events, so the same sink works under serial and ``workers=N``
  execution.  Under workers, cell events reach the parent at the
  chunk-ordered merge, so the display advances as chunks complete.
"""

from __future__ import annotations

import time

from .sinks import Sink

__all__ = ["ProgressSink", "TopSink", "format_eta"]


def format_eta(seconds: float) -> str:
    """``1:05:03``-style compact duration."""
    seconds = max(0, int(seconds))
    hours, rest = divmod(seconds, 3600)
    minutes, secs = divmod(rest, 60)
    if hours:
        return f"{hours}:{minutes:02d}:{secs:02d}"
    return f"{minutes}:{secs:02d}"


class ProgressSink(Sink):
    """Render cell/round progress with an ETA to a terminal stream.

    ``min_interval`` rate-limits redraws (seconds of wall clock between
    renders; cell completions always render).  ``stream`` defaults to
    ``sys.stderr`` resolved at write time; ``clock`` is injectable for
    tests.
    """

    def __init__(
        self,
        stream=None,
        min_interval: float = 0.1,
        clock=time.monotonic,
    ) -> None:
        self.stream = stream
        self.min_interval = min_interval
        self._clock = clock
        self._start: float | None = None
        self._last_render: float | None = None
        self._cells_total = 0
        self._cells_pending = 0
        self._cells_done = 0
        self._rounds = 0
        self._wrote = False

    # -- event side --------------------------------------------------------

    def handle(self, event: dict) -> None:
        kind = event.get("type")
        if self._start is None and kind in ("grid", "round", "cell"):
            self._start = self._clock()
        if kind == "grid":
            cells = int(event.get("cells", 0))
            self._cells_total += cells
            self._cells_pending += int(event.get("pending", cells))
        elif kind == "round":
            self._rounds += 1
            self._render(event, force=False)
        elif kind == "cell":
            self._cells_done += 1
            self._render(
                event,
                force=self._cells_pending > 0
                and self._cells_done >= self._cells_pending,
            )

    def close(self, telemetry, aborted: bool = False) -> None:
        if not self._wrote:
            return
        out = self._out()
        elapsed = (self._clock() - self._start) if self._start is not None else 0.0
        status = "aborted after" if aborted else "finished:"
        print(
            f"\rprogress {status} {self._cells_done} cells, "
            f"{self._rounds} rounds in {format_eta(elapsed)}" + " " * 16,
            file=out,
            flush=True,
        )

    # -- rendering side ----------------------------------------------------

    def _out(self):
        if self.stream is not None:
            return self.stream
        import sys

        return sys.stderr

    def _render(self, event: dict, force: bool) -> None:
        now = self._clock()
        if self._start is None:
            self._start = now
        if (
            not force
            and self._last_render is not None
            and now - self._last_render < self.min_interval
        ):
            return
        self._last_render = now
        pending = self._cells_pending
        if pending:
            head = f"[{self._cells_done}/{pending} cells]"
        else:
            head = f"[{self._cells_done} cells]"
        parts = [head]
        tga = event.get("tga")
        if tga:
            where = ":".join(
                str(event[key])
                for key in ("tga", "dataset", "port")
                if event.get(key) is not None
            )
            parts.append(where)
        if event.get("type") == "round":
            parts.append(
                f"round {event.get('round', self._rounds)} "
                f"generated={event.get('generated', 0):,} "
                f"raw_hits={event.get('raw_hits', 0):,}"
            )
        elif event.get("type") == "cell":
            parts.append(
                f"hits={event.get('hits', 0):,} rounds={event.get('rounds', 0)}"
            )
        elapsed = now - self._start
        if pending and 0 < self._cells_done < pending and elapsed > 0:
            rate = self._cells_done / elapsed
            parts.append(f"eta {format_eta((pending - self._cells_done) / rate)}")
        line = " ".join(parts)
        print("\r" + line[:118].ljust(118), end="", file=self._out(), flush=True)
        self._wrote = True


class TopSink(ProgressSink):
    """A ``top(1)``-style roll-up of resource samples per worker rank.

    Extends :class:`ProgressSink` with consumption of the flight
    recorder's ``resource`` events, but renders nothing incrementally —
    callers pull :meth:`render` whenever they want the current table
    (``repro top`` does so on a fixed cadence while following a trace
    file).  Inherits the determinism invariants: it only observes the
    stream, never writes into it.
    """

    def __init__(self, clock=time.monotonic) -> None:
        super().__init__(stream=None, min_interval=float("inf"), clock=clock)
        #: rank -> latest sample fields (plus running peak).
        self.rows: dict[str, dict] = {}
        self.watermarks: list[dict] = []

    def _render(self, event: dict, force: bool) -> None:  # pragma: no cover - silent
        self._wrote = False  # never draws incrementally, never prints a footer

    def handle(self, event: dict) -> None:
        super().handle(event)
        if event.get("type") != "resource":
            return
        if event.get("kind") == "watermark":
            self.watermarks.append(dict(event))
            return
        if event.get("kind") != "sample":
            return
        rank = str(event.get("rank", "?"))
        row = self.rows.setdefault(rank, {"peak_rss_mb": 0.0})
        row.update(
            {
                key: event[key]
                for key in (
                    "t",
                    "rss_mb",
                    "cpu_s",
                    "gc",
                    "cache_entries",
                    "resident_ases",
                    "span",
                    "tga",
                )
                if key in event
            }
        )
        rss = float(event.get("rss_mb", 0.0))
        if rss > row["peak_rss_mb"]:
            row["peak_rss_mb"] = rss

    def render(self) -> str:
        """The current multi-line table (empty string before any sample)."""
        if not self.rows:
            return ""
        lines = [
            f"cells {self._cells_done}/{self._cells_pending or self._cells_total}"
            f"  rounds {self._rounds}  samplers {len(self.rows)}",
            f"{'RANK':<10} {'RSS_MB':>8} {'PEAK':>8} {'CPU_S':>8} "
            f"{'GC':>5} {'CACHE':>6} {'ASES':>7}  WHERE",
        ]
        ranks = sorted(self.rows, key=lambda r: (r != "parent", r))
        for rank in ranks:
            row = self.rows[rank]
            where = str(row.get("span", ""))
            tga = row.get("tga")
            if tga:
                where = f"{where} [{tga}]"
            lines.append(
                f"{rank:<10} {row.get('rss_mb', 0):>8.1f} "
                f"{row.get('peak_rss_mb', 0):>8.1f} "
                f"{row.get('cpu_s', 0):>8.2f} "
                f"{int(row.get('gc', 0)):>5d} "
                f"{int(row.get('cache_entries', 0)):>6d} "
                f"{int(row.get('resident_ases', 0)):>7d}  {where}"
            )
        for mark in self.watermarks[-3:]:
            lines.append(
                f"!! {mark.get('level', '?')} watermark on {mark.get('rank', '?')}: "
                f"{mark.get('rss_mb', 0)} MiB of {mark.get('budget_mb', 0)} MiB budget"
            )
        return "\n".join(lines)
