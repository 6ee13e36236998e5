"""Exception types shared across the toolkit."""


class CharsumsError(Exception):
    """Base class for all toolkit errors."""


# field construction / element handling
class NotPrime(CharsumsError):
    pass


class Overflow(CharsumsError):
    pass


class CtxMismatch(CharsumsError):
    pass


class FieldTooLarge(CharsumsError):
    pass


class ZeroElement(CharsumsError):
    pass


# polynomial ring
class DivByZeroPoly(CharsumsError):
    pass


class ZeroPoly(CharsumsError):
    pass


class DegenerateDerivative(CharsumsError):
    pass


# invariance decompositions
class NotInvariant(CharsumsError):
    pass


# character sums
class ZeroMu(CharsumsError):
    pass


class NotABasis(CharsumsError):
    pass


# truncated series / local data
class PrecisionExhausted(CharsumsError):
    pass


class NoRootInField(CharsumsError):
    pass


class BadCharacteristic(CharsumsError):
    pass


class HypothesisFailed(CharsumsError):
    pass


# bound formulas
class DegenerateReduction(CharsumsError):
    pass


class MthPower(CharsumsError):
    pass


class NotExceptionalCell(CharsumsError):
    pass


class RootsNotInBaseField(CharsumsError):
    pass


class SequenceMismatch(CharsumsError):
    pass


# experiment harness
class ConfigInvalid(CharsumsError):
    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class Unsatisfiable(CharsumsError):
    pass
