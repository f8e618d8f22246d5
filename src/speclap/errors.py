"""Exception types shared across the library."""


class SpeclapError(Exception):
    """Base class for all domain errors."""


class NotSymmetric(SpeclapError):
    pass


class NoConvergence(SpeclapError):
    pass


class ZeroVector(SpeclapError):
    pass


class IsolatedVertex(SpeclapError):
    def __init__(self, node):
        self.node = node
        super().__init__(f"isolated vertex {node}")


class NotConnected(SpeclapError):
    pass


class DimensionTooLarge(SpeclapError):
    pass


class NoNegativeEdges(SpeclapError):
    pass


class DegenerateSubset(SpeclapError):
    pass


class AllOneSide(SpeclapError):
    pass


class RankDeficient(SpeclapError):
    pass


class EmptyBlock(SpeclapError):
    pass


class ZeroVolume(SpeclapError):
    pass


class NegativeWeightInUnsignedMode(SpeclapError):
    pass


class NonFiniteWeight(SpeclapError):
    pass


class ParseError(SpeclapError):
    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class DuplicateEdge(ParseError):
    def __init__(self, line_no, i, j):
        super().__init__(line_no, f"duplicate edge ({i}, {j})")


class IndexOutOfRange(ParseError):
    def __init__(self, line_no, idx):
        super().__init__(line_no, f"node index {idx} out of range")
