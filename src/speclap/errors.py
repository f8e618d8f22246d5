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


# drawing / clustering preconditions use the same condition under another name
Disconnected = NotConnected


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
        super(ParseError, self).__init__(f"line {line_no}: duplicate edge ({i}, {j})")
        self.line_no = line_no


class IndexOutOfRange(ParseError):
    def __init__(self, line_no, idx):
        super(ParseError, self).__init__(f"line {line_no}: node index {idx} out of range")
        self.line_no = line_no
