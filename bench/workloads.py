"""The benchmark's workloads by name."""

from cli_session import CliSession
from identity_sweep import IdentitySweep
from series_expand import SeriesExpand

WORKLOADS = {w.name: w for w in (IdentitySweep, SeriesExpand, CliSession)}
