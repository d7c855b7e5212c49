"""Exception types shared across the package.

Precondition violations (bad ranks, alpha out of range, shape mismatches)
raise plain ValueError. FormatError and IntegrityError cover problems with
serialized artifacts, where the caller needs to distinguish "the file is
malformed" from "the file was damaged or tampered with"; CompatibilityError
covers a pack that does not fit the base it is composed onto.
"""


class SkillPackError(Exception):
    """Base class for container-level failures."""


class FormatError(SkillPackError):
    """File structure is not a valid container (magic, version, truncation, duplicates)."""


class IntegrityError(SkillPackError):
    """Container parsed but its contents fail verification (CRC, stats, code ranges)."""


class CompatibilityError(SkillPackError, ValueError):
    """A pack does not fit its base: another base model id, a missing tensor name or another shape."""
