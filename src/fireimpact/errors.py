"""Exception hierarchy shared across the pipeline.

Validation problems (bad values, unknown codes) exit the CLI with status 1;
file format and I/O problems exit with status 2.
"""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PipelineError):
    """Invalid value, configuration, or precondition."""


class AlignmentError(ValidationError):
    """Rasters or masks with mismatched grids were combined."""


class GeometryError(ValidationError):
    """Degenerate or otherwise invalid geometry."""


class UnknownClassError(ValidationError):
    """A land-cover class code has no entry in the active weight table."""


class UnpricedClassError(ValidationError):
    """A land-cover or road class has no entry in the cost model."""


class MissingTractError(ValidationError):
    """A census tract referenced by an affected block has no demographics row."""


class FormatError(PipelineError):
    """A file failed to parse: bad header, bad geometry type, bad dimensions."""


class SchemaError(FormatError):
    """A file parsed but is missing required columns or properties."""
