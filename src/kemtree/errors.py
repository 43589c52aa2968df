"""Exception types shared across the library and the CLI."""


class KemtreeError(Exception):
    """Base class for all library-specific errors."""


class InputError(KemtreeError, ValueError):
    """An argument is outside the domain of the operation (an order, a
    diameter, a vertex pair, a move). Also a ValueError, so callers that
    catch ValueError keep working."""


def check_int(name: str, value: object) -> None:
    """InputError unless `value` is an int and not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{name} must be an integer, not {type(value).__name__}")


def check_type(name: str, value: object, kind: type) -> None:
    """InputError unless `value` is an instance of `kind`."""
    if not isinstance(value, kind):
        raise InputError(f"{name} must be a {kind.__name__}, not {type(value).__name__}")


class ParseError(KemtreeError):
    """Edge-list input could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DisconnectedError(KemtreeError):
    """Operation requires a connected graph; names one unreachable pair."""

    def __init__(self, u, v):
        super().__init__(f"graph is disconnected: no path between {u} and {v}")
        self.pair = (u, v)


class NotATreeError(KemtreeError):
    """Graph failed tree validation; reason is 'cyclic' or 'disconnected'."""

    def __init__(self, reason):
        super().__init__(f"graph is not a tree ({reason})")
        self.reason = reason


class ResourceLimitError(KemtreeError):
    """A request exceeds a size limit that is checked before the work it
    bounds is done: the enumeration or oracle order cap, the vertex ceiling
    of an edge list (then the message names the line), the pair limit of
    census `mates`, the vertex limit of the forest route
    (`invariants.MAX_DENSE_VERTICES`), the sparse route's limits on its
    modulus and elimination work (`sparse`) and on the BFS work of W and
    the Gutman index that it checks first (`invariants.MAX_DISTANCE_WORK`),
    or Python's limit on the digits of a formatted integer
    (`sys.get_int_max_str_digits()`)."""


class PathTooShortError(KemtreeError):
    """Contract-and-subdivide needs an endpoint path of length at least 2."""


class NotABridgeConfigError(KemtreeError):
    """Branch relocation target must lie outside the detached branch."""


class RouteRequiresTreeError(KemtreeError):
    """The requested Kemeny computation route is defined only on trees."""


class TheoremViolationError(KemtreeError):
    """A maximal element escaped the leaf-distance filter, or an internal
    consistency check failed; indicates a bug."""
