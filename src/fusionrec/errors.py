"""Exception hierarchy shared across the package.

Four error classes map onto the CLI's nonzero exit codes; everything else
(dimension mismatches, bad arguments to library functions) raises plain
ValueError/KeyError as usual.
"""


class FusionrecError(Exception):
    """Base class for errors that carry a CLI exit code."""

    exit_code = 1


class ConfigError(FusionrecError):
    """Invalid configuration value, unknown key, or bad weight vector."""

    exit_code = 2


class DataError(FusionrecError):
    """Malformed or inconsistent input data, fixtures, or cohorts."""

    exit_code = 3


class TrainingError(FusionrecError):
    """Training diverged or produced a non-finite loss."""

    exit_code = 4


class DependencyError(FusionrecError):
    """Missing prerequisite artifact or locked output directory."""

    exit_code = 5
