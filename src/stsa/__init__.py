"""Short-term sinusoidal analysis of complex-baseband recordings.

Block-wise estimation of carrier magnitude, frequency, and phase; synthesis
of a noise-free waveform estimate; and coherent subtraction of that estimate
from the original stream.
"""

from .blockproc import (
    BlockEstimates,
    Estimates,
    SinusoidEstimate,
    StsaConfig,
    estimate_block,
    process_stream,
)
from .iq import IqFormat, SampleStream, read_iq, write_iq
from .metrics import (
    DynamicSpectrum,
    SpectrumFrame,
    SuppressionReport,
    band_power,
    dynamic_spectrum,
    power_spectrum,
    suppression_report,
)
from .pipeline import CancelResult, run_cancel
from .siggen import NbfmSpec, TruthRecord, add_awgn, gen_am, gen_nbfm, gen_tone, mix
from .synthesis import (
    SynthesizedWaveform,
    Track,
    assemble_tracks,
    cancel,
    combine_waveforms,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "BlockEstimates",
    "CancelResult",
    "DynamicSpectrum",
    "Estimates",
    "IqFormat",
    "NbfmSpec",
    "SampleStream",
    "SinusoidEstimate",
    "SpectrumFrame",
    "StsaConfig",
    "SuppressionReport",
    "SynthesizedWaveform",
    "Track",
    "TruthRecord",
    "add_awgn",
    "assemble_tracks",
    "band_power",
    "cancel",
    "combine_waveforms",
    "dynamic_spectrum",
    "estimate_block",
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
