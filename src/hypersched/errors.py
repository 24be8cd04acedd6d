"""Structured errors raised across the package.

Every error that a caller might want to branch on carries its data as
attributes, with 0-based link ids; the message is only for display and uses
the 1-based labels of files and reports.
"""


def format_set(links) -> str:
    """Space-separated 1-based labels; `-` for the empty set."""
    if not links:
        return "-"
    return " ".join(str(v + 1) for v in sorted(links))


class HyperschedError(Exception):
    """Base class for all structured errors raised by hypersched."""


class EdgeTooSmall(HyperschedError):
    def __init__(self, edge):
        self.edge = tuple(edge)
        super().__init__(f"edge {format_set(self.edge)} has fewer than 2 links")


class NotAntichain(HyperschedError):
    def __init__(self, edge, superset):
        self.edge = tuple(edge)
        self.superset = tuple(superset)
        super().__init__(
            f"edge {format_set(self.edge)} is contained in edge {format_set(self.superset)}"
        )


class LinkOutOfRange(HyperschedError):
    def __init__(self, edge, link, num_links):
        self.edge = tuple(edge)
        self.link = link
        self.num_links = num_links
        super().__init__(
            f"edge {format_set(self.edge)} mentions link {link + 1}; labels are 1..{num_links}"
        )


class SizeLimitExceeded(HyperschedError):
    def __init__(self, n, limit):
        self.n = n
        self.limit = limit
        super().__init__(f"instance has {n} links, limit for this operation is {limit}")


class NotIndependent(HyperschedError):
    def __init__(self, links):
        self.links = frozenset(links)
        super().__init__(f"set {format_set(self.links)} contains a forbidden edge")


class DurationExceedsOne(HyperschedError):
    def __init__(self, total, allowed):
        self.total = total
        self.allowed = allowed
        super().__init__(f"total duration {total} exceeds budget {allowed}")


class DemandUnmet(HyperschedError):
    def __init__(self, link, covered, required):
        self.link = link
        self.covered = covered
        self.required = required
        super().__init__(f"link {link + 1} covered for {covered}, demand is {required}")


class InvalidWeightMatrix(HyperschedError):
    """A weight matrix is outside the admissible class."""


class NotSymmetric(InvalidWeightMatrix):
    def __init__(self, i, j):
        self.i, self.j = i, j
        super().__init__(f"W[{i + 1}][{j + 1}] != W[{j + 1}][{i + 1}]")


class EntryOutOfRange(InvalidWeightMatrix):
    def __init__(self, i, j, value):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"W[{i + 1}][{j + 1}] = {value} is outside [0, 1]")


class NonzeroDiagonal(InvalidWeightMatrix):
    def __init__(self, i, value):
        self.i, self.value = i, value
        super().__init__(f"W[{i + 1}][{i + 1}] = {value}, diagonal must be zero")


class NonNeighborNonzero(InvalidWeightMatrix):
    def __init__(self, i, j, value):
        self.i, self.j, self.value = i, j, value
        a, b = i + 1, j + 1
        super().__init__(f"W[{a}][{b}] = {value} but links {a} and {b} share no edge")


class EdgeRowSumTooSmall(InvalidWeightMatrix):
    def __init__(self, edge, link, total):
        self.edge = tuple(edge)
        self.link = link
        self.total = total
        super().__init__(
            f"sum of W[{link + 1}][j] over edge {format_set(self.edge)} is {total}, must be >= 1"
        )


class InsufficientRoom(HyperschedError):
    def __init__(self, length, available):
        self.length = length
        self.available = available
        super().__init__(f"need measure {length}, only {available} is free")


class ScheduleStuck(HyperschedError):
    def __init__(self, link, demanded, available):
        self.link = link
        self.demanded = demanded
        self.available = available
        super().__init__(
            f"cannot place link {link + 1}: demand {demanded}, free time {available}"
        )


class SolverInvariantError(HyperschedError):
    """An internal solver guarantee failed; this is a bug, not a bad input."""


class ParseError(HyperschedError):
    def __init__(self, path, line, message):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")
