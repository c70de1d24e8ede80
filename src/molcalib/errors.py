"""Exception types shared across the package.

Every error raised deliberately by molcalib derives from :class:`MolcalibError`
so callers can catch the whole family at the CLI boundary and map it to an
exit code; :func:`reading` turns a failed file read into one of them.
"""

from __future__ import annotations

import contextlib
import csv


class MolcalibError(Exception):
    """Base class for all molcalib errors."""


class SmilesError(MolcalibError):
    """Base for SMILES parsing failures.

    Carries the 1-based character position where parsing failed and the
    offending token text.
    """

    def __init__(self, message: str, position: int, token: str = "") -> None:
        self.position = position
        self.token = token
        if token:
            super().__init__(f"{message} (position {position}, token {token!r})")
        else:
            super().__init__(f"{message} (position {position})")


class SmilesSyntaxError(SmilesError):
    """Malformed SMILES: bad token, unbalanced branch, dangling ring bond."""


class UnsupportedFeatureError(SmilesError):
    """Well-formed SMILES using a construct outside the supported dialect."""


class FeatureError(MolcalibError):
    """Atom degree or hydrogen count falls outside the featurizer's bins."""


class ShapeError(MolcalibError):
    """Tensor operands have incompatible or unsupported shapes."""


class NumericalError(MolcalibError):
    """A computation produced NaN or Inf."""


class TapeError(MolcalibError):
    """Backward pass requested for a value the tape cannot differentiate."""


class DegenerateError(MolcalibError):
    """A metric is undefined for the given records (e.g. single-class AUROC)."""


class IoError(MolcalibError):
    """A required input file is missing or unreadable."""


class SchemaError(MolcalibError):
    """An input file lacks required columns or has malformed values."""


class EmptyDatasetError(MolcalibError):
    """Ingestion produced zero usable records."""


class ConfigError(MolcalibError):
    """Experiment configuration is malformed or inconsistent."""


@contextlib.contextmanager
def reading(path: str, what: str):
    """Scope reading the text file `path`: failing to open or read it
    raises :class:`IoError`; text that is not UTF-8, or a CSV field over
    the csv module's limit, raises :class:`SchemaError`."""
    try:
        yield
    except OSError as err:
        raise IoError(f"cannot read {what} {path!r}: {err}") from err
    except (UnicodeDecodeError, csv.Error) as err:
        raise SchemaError(f"cannot decode {what} {path!r}: {err}") from err
