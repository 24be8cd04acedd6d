"""Structured errors raised across the package.

Every error that a caller might want to branch on carries its data as
attributes; the message is only for display.
"""


class HyperschedError(Exception):
    """Base class for all structured errors raised by hypersched."""


class HypergraphInvalid(HyperschedError):
    """A hypergraph violates one of its structural invariants."""


class EdgeTooSmall(HypergraphInvalid):
    def __init__(self, edge):
        self.edge = tuple(edge)
        super().__init__(f"edge {self.edge} has fewer than 2 links")


class NotAntichain(HypergraphInvalid):
    def __init__(self, edge, superset):
        self.edge = tuple(edge)
        self.superset = tuple(superset)
        super().__init__(f"edge {self.edge} is contained in edge {self.superset}")


class LinkOutOfRange(HypergraphInvalid):
    def __init__(self, edge, link, num_links):
        self.edge = tuple(edge)
        self.link = link
        self.num_links = num_links
        super().__init__(
            f"edge {self.edge} mentions link {link}; valid ids are 0..{num_links - 1}"
        )


class SizeLimitExceeded(HyperschedError):
    def __init__(self, n, limit):
        self.n = n
        self.limit = limit
        super().__init__(f"instance has {n} links, limit for this operation is {limit}")


class ScheduleInvalid(HyperschedError):
    """A schedule violates independence, duration or coverage requirements."""


class NotIndependent(ScheduleInvalid):
    def __init__(self, links):
        self.links = frozenset(links)
        super().__init__(f"set {tuple(sorted(self.links))} contains a forbidden edge")


class DurationExceedsOne(ScheduleInvalid):
    def __init__(self, total, allowed):
        self.total = total
        self.allowed = allowed
        super().__init__(f"total duration {total} exceeds budget {allowed}")


class DemandUnmet(ScheduleInvalid):
    def __init__(self, link, covered, required):
        self.link = link
        self.covered = covered
        self.required = required
        super().__init__(f"link {link} covered for {covered}, demand is {required}")


class InvalidWeightMatrix(HyperschedError):
    """A weight matrix is outside the admissible class."""


class NotSymmetric(InvalidWeightMatrix):
    def __init__(self, i, j):
        self.i, self.j = i, j
        super().__init__(f"W[{i}][{j}] != W[{j}][{i}]")


class EntryOutOfRange(InvalidWeightMatrix):
    def __init__(self, i, j, value):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"W[{i}][{j}] = {value} is outside [0, 1]")


class NonzeroDiagonal(InvalidWeightMatrix):
    def __init__(self, i, value):
        self.i, self.value = i, value
        super().__init__(f"W[{i}][{i}] = {value}, diagonal must be zero")


class NonNeighborNonzero(InvalidWeightMatrix):
    def __init__(self, i, j, value):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"W[{i}][{j}] = {value} but links {i} and {j} share no edge")


class EdgeRowSumTooSmall(InvalidWeightMatrix):
    def __init__(self, edge, link, total):
        self.edge = tuple(edge)
        self.link = link
        self.total = total
        super().__init__(
            f"sum of W[{link}][j] over edge {self.edge} is {total}, must be >= 1"
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
            f"cannot place link {link}: demand {demanded}, free time {available}"
        )


class SolverInvariantError(HyperschedError):
    """An internal solver guarantee failed; this is a bug, not a bad input."""


class ParseError(HyperschedError):
    def __init__(self, path, line, message):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")
