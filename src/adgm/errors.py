"""Exception types shared across the package."""


class AdgmError(Exception):
    """Base class for errors raised by this package."""


class ConfigurationError(AdgmError):
    """A solver or experiment parameter is out of its valid range."""


class OracleRefusalError(AdgmError):
    """An exact oracle declined to run because the instance is too large."""
