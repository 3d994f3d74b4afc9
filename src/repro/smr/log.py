"""The replicated log: slot-indexed decided commands.

Each process owns one :class:`ReplicatedLog`.  Safety of the underlying
consensus guarantees that two processes never learn different commands for
the same slot; the log enforces that locally (a conflicting ``learn`` raises)
so any protocol bug surfaces immediately rather than corrupting downstream
state machines.

Handlers query the log on every message, so the log keeps indexes next to
its entries: the set of command ids it holds, its highest slot, and a sorted
view of its entries, extended by a learn past the highest slot and rebuilt
lazily after any other learn.  Logs usually hold a contiguous prefix of
slots, and comparing two such logs needs only their lengths
(:meth:`ReplicatedLog.unknown_entries`,
:meth:`ReplicatedLog.entries_missing_from`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError

__all__ = ["ReplicatedLog", "command_id_of"]

Entries = Sequence[Tuple[int, Any]]


def command_id_of(value: Any) -> Optional[Any]:
    """The command id of a ``(command_id, command)`` log entry, else None."""
    if isinstance(value, tuple) and len(value) == 2:
        return value[0]
    return None


def _is_prefix(entries: Entries) -> bool:
    """Whether slot-sorted, duplicate-free ``entries`` hold exactly slots ``0 .. len - 1``."""
    return not entries or entries[-1][0] == len(entries) - 1


class ReplicatedLog:
    """Slot → decided command, with contiguous-prefix tracking."""

    def __init__(self) -> None:
        self._entries: Dict[int, Any] = {}
        self._command_ids: set = set()
        self._highest = -1
        self._sorted: Optional[Tuple[Tuple[int, Any], ...]] = ()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, slot: int) -> bool:
        return slot in self._entries

    def __iter__(self) -> Iterator[Tuple[int, Any]]:
        return iter(self.items())

    def items(self) -> Tuple[Tuple[int, Any], ...]:
        """Every ``(slot, command)`` entry, sorted by slot."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self._entries.items()))
        return self._sorted

    def get(self, slot: int) -> Optional[Any]:
        """The decided command of ``slot``, or None if not yet learned."""
        return self._entries.get(slot)

    def has_command(self, command_id: Any) -> bool:
        """Whether some slot decided the ``(command_id, command)`` entry."""
        return command_id in self._command_ids

    def learn(self, slot: int, command: Any) -> bool:
        """Record that ``slot`` decided ``command``.

        Returns True if this was new information.  Learning the same command
        again is a no-op; learning a *different* command for a decided slot
        raises (it would mean consensus safety was violated).
        """
        if slot < 0:
            raise ProtocolError(f"slot must be non-negative, got {slot}")
        if slot in self._entries:
            if self._entries[slot] != command:
                raise ProtocolError(
                    f"slot {slot} already decided {self._entries[slot]!r}, "
                    f"refusing to overwrite with {command!r}"
                )
            return False
        self._entries[slot] = command
        if slot > self._highest:
            if self._sorted is not None:
                self._sorted += ((slot, command),)
            self._highest = slot
        else:
            self._sorted = None
        command_id = command_id_of(command)
        if command_id is not None:
            self._command_ids.add(command_id)
        return True

    # -- queries ---------------------------------------------------------------
    @property
    def decided_slots(self) -> List[int]:
        return sorted(self._entries)

    @property
    def highest_slot(self) -> int:
        """Highest decided slot, or −1 if the log is empty."""
        return self._highest

    def _both_prefixes(self, entries: Entries) -> bool:
        return self._highest == len(self._entries) - 1 and _is_prefix(entries)

    def unknown_entries(self, entries: Entries) -> Entries:
        """The entries of slot-sorted ``entries`` whose slot this log has not decided."""
        if self._both_prefixes(entries):
            return entries[len(self._entries):]
        known = self._entries
        return [entry for entry in entries if entry[0] not in known]

    def entries_missing_from(self, entries: Entries) -> Entries:
        """This log's entries, in slot order, whose slot slot-sorted ``entries`` lacks."""
        if self._both_prefixes(entries):
            return self.items()[len(entries):]
        slots = {slot for slot, _ in entries}
        return [entry for entry in self.items() if entry[0] not in slots]

    def first_gap(self) -> int:
        """The lowest slot that has not been decided yet."""
        slot = 0
        while slot in self._entries:
            slot += 1
        return slot

    def contiguous_prefix(self) -> List[Any]:
        """Commands of slots ``0 .. first_gap() - 1`` in order (safe to apply)."""
        prefix = []
        slot = 0
        while slot in self._entries:
            prefix.append(self._entries[slot])
            slot += 1
        return prefix

    def snapshot(self) -> Dict[int, Any]:
        """Copy of the whole log."""
        return dict(self._entries)

    @classmethod
    def restore(cls, snapshot: Optional[Dict[int, Any]]) -> "ReplicatedLog":
        log = cls()
        for slot, command in (snapshot or {}).items():
            log.learn(int(slot), command)
        return log
