"""The loop buffer (paper section III.C, Fig. 7).

Small loop bodies are captured whole in a 16-entry buffer.  While the
frontend streams from the LBUF:

* no L1 instruction-cache access happens (power, and immunity to I$
  misses),
* the backward jump costs no bubble, and
* the last instruction of iteration *n* can issue together with the
  first instruction of iteration *n+1*.

Forward branches inside the body are allowed (if/else bodies), so the
capture condition is: a backward taken branch whose body fits in 16
entries, with no other backward control flow inside.  The buffer is
flushed on context switches.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LoopBufferConfig:
    enabled: bool = True
    entries: int = 16
    # A loop must iterate this many times back-to-back before the LBUF
    # locks on (hardware detects "small loop executing").
    capture_threshold: int = 2


@dataclass
class LoopBufferStats:
    captures: int = 0
    supplied_insts: int = 0
    exits: int = 0
    flushes: int = 0


class LoopBuffer:
    """Detects and replays small hot loops."""

    def __init__(self, config: LoopBufferConfig | None = None):
        self.config = config if config is not None else LoopBufferConfig()
        self._loop_pc: int | None = None       # backward branch PC
        self._loop_target: int | None = None   # loop head
        self._hit_count = 0
        self._active = False
        self.stats = LoopBufferStats()

    @property
    def active(self) -> bool:
        return self._active

    def covers(self, pc: int) -> bool:
        """Is *pc* inside the currently-locked loop body?"""
        if not self._active:
            return False
        assert self._loop_target is not None and self._loop_pc is not None
        return self._loop_target <= pc <= self._loop_pc

    def observe_branch(self, pc: int, target: int, taken: bool,
                       body_insts: int) -> None:
        """Feed every executed branch; manages capture and exit.

        ``body_insts`` is the dynamic instruction count since the last
        visit to *target* (the frontend tracks it), used as the
        16-entry capacity check.
        """
        if not self.config.enabled:
            return
        backward = target <= pc
        if self._active:
            if pc == self._loop_pc:
                if not taken:
                    self._exit()
                return
            if backward and taken:
                # A different backward branch: not a simple small loop.
                self._exit()
            return
        if not (backward and taken):
            return
        if body_insts == 0 or body_insts > self.config.entries:
            self._reset_candidate()
            return
        if pc == self._loop_pc and target == self._loop_target:
            self._hit_count += 1
            if self._hit_count >= self.config.capture_threshold:
                self._active = True
                self.stats.captures += 1
        else:
            self._loop_pc = pc
            self._loop_target = target
            self._hit_count = 1

    def supply(self, count: int = 1) -> None:
        """Record instructions streamed from the buffer (no I$ access)."""
        self.stats.supplied_insts += count

    def _exit(self) -> None:
        self._active = False
        self._hit_count = 0
        self.stats.exits += 1

    def _reset_candidate(self) -> None:
        self._loop_pc = None
        self._loop_target = None
        self._hit_count = 0

    def flush(self) -> None:
        """Context switch: the loop buffer is flushed (section III.C)."""
        self._exit_if_active()
        self._reset_candidate()
        self.stats.flushes += 1

    def _exit_if_active(self) -> None:
        if self._active:
            self._active = False
            self.stats.exits += 1
