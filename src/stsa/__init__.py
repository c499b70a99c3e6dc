"""Short-term sinusoidal analysis of complex-baseband recordings.

Block-wise estimation of carrier magnitude, frequency, and phase; synthesis
of a noise-free waveform estimate; and coherent subtraction of that estimate
from the original stream.
"""

from .blockproc import Estimates, StsaConfig, process_stream
from .iq import IqFormat, SampleStream, read_iq, write_iq
from .metrics import (
    DynamicSpectrum,
    SpectrumFrame,
    SuppressionReport,
    dynamic_spectrum,
    power_spectrum,
    suppression_report,
)
from .pipeline import CancelResult, run_cancel
from .siggen import NbfmSpec, TruthRecord, add_awgn, gen_am, gen_nbfm, gen_tone, mix
from .synthesis import assemble_tracks, cancel, synthesize

__version__ = "0.1.0"

__all__ = [
    "CancelResult",
    "DynamicSpectrum",
    "Estimates",
    "IqFormat",
    "NbfmSpec",
    "SampleStream",
    "SpectrumFrame",
    "StsaConfig",
    "SuppressionReport",
    "TruthRecord",
    "add_awgn",
    "assemble_tracks",
    "cancel",
    "dynamic_spectrum",
    "gen_am",
    "gen_nbfm",
    "gen_tone",
    "mix",
    "power_spectrum",
    "process_stream",
    "read_iq",
    "run_cancel",
    "suppression_report",
    "synthesize",
    "write_iq",
]
